#include "rko/sim/actor.hpp"

#include <cstdio>
#include <utility>

#include "rko/race/race.hpp"

namespace rko::sim {

Actor::Actor(Engine& engine, std::string name, std::function<void(Actor&)> body,
             std::size_t stack_bytes)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      ctx_([this] { run_body(); }, stack_bytes) {}

Actor::~Actor() {
    if (state_ != State::kFinished && state_ != State::kNew) {
        std::fprintf(stderr, "live actor at destruction: %s\n", name_.c_str());
    }
    RKO_ASSERT_MSG(state_ == State::kFinished || state_ == State::kNew,
                   "actor destroyed while live; join() it first");
}

void Actor::start(Nanos delay) {
    RKO_ASSERT_MSG(state_ == State::kNew, "actor already started");
    state_ = State::kReady;
    engine_.schedule(*this, engine_.now() + delay, ++generation_);
}

void Actor::run_body() {
    body_(*this);
    if (race::enabled()) race::on_actor_finished(*this);
    state_ = State::kFinished;
    ++generation_; // invalidate any pending timer events
    for (Actor* waiter : join_waiters_) waiter->unpark();
    join_waiters_.clear();
    switch_to_engine();
    RKO_UNREACHABLE("finished actor resumed");
}

void Actor::switch_to_engine() {
    Context::switch_to(ctx_, engine_.main_context());
}

void Actor::sleep_for(Nanos d) {
    RKO_ASSERT(&engine_.current() == this);
    RKO_ASSERT(d >= 0);
    if (d == 0) return;
    if (engine_.advance_inline(engine_.now() + d)) {
        ++generation_; // as if a wake-up event had been queued and dispatched
    } else {
        state_ = State::kReady;
        engine_.schedule(*this, engine_.now() + d, ++generation_);
        switch_to_engine();
    }
    // Back from a suspension: other actors may have run. An inline advance
    // reports the resume too, so the detector sees the same call sequence
    // either way. (The permit fast paths in park/park_for skip this —
    // nothing interleaved there.)
    if (race::enabled()) race::on_actor_resumed(*this);
}

void Actor::park() {
    RKO_ASSERT(&engine_.current() == this);
    if (permit_) {
        permit_ = false;
        return;
    }
    state_ = State::kParked;
    ++generation_; // no pending event while parked
    switch_to_engine();
    RKO_ASSERT(state_ == State::kRunning);
    if (race::enabled()) race::on_actor_resumed(*this);
}

bool Actor::park_for(Nanos timeout) {
    RKO_ASSERT(&engine_.current() == this);
    RKO_ASSERT(timeout >= 0);
    if (permit_) {
        permit_ = false;
        return true;
    }
    state_ = State::kParked;
    woken_ = false;
    // The timeout event carries the current generation; an unpark() bumps
    // the generation, turning the timer into a stale event.
    engine_.schedule(*this, engine_.now() + timeout, ++generation_);
    switch_to_engine();
    RKO_ASSERT(state_ == State::kRunning);
    if (race::enabled()) race::on_actor_resumed(*this);
    return woken_;
}

void Actor::unpark(Nanos delay) {
    switch (state_) {
    case State::kParked:
        state_ = State::kReady;
        woken_ = true;
        engine_.schedule(*this, engine_.now() + delay, ++generation_);
        return;
    case State::kRunning:
    case State::kReady:
        permit_ = true;
        return;
    case State::kNew:
    case State::kFinished:
        // Unparking an unstarted/finished actor is a silent no-op: wakeups
        // racing with exit are normal in the protocols built on top.
        return;
    }
}

void Actor::join() {
    if (state_ == State::kFinished) return;
    Actor& self = engine_.current();
    RKO_ASSERT_MSG(&self != this, "actor cannot join itself");
    join_waiters_.push_back(&self);
    self.park();
}

} // namespace rko::sim
