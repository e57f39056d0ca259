// Deterministic discrete-event engine.
//
// The engine owns a virtual clock and a min-heap of (time, seq) events, each
// naming an Actor to resume. Exactly one actor executes at a time on the
// single host thread; actors hand control back by sleeping, parking, or
// finishing. Determinism: ties are broken by a monotonically increasing
// sequence number, so a given program + seed always interleaves identically.
//
// Schedule exploration (rko/check's race detector): enable_tie_shuffle(seed)
// inserts a seeded random key between (time) and (seq) in the event order.
// Same-timestamp events — exactly the set whose order the simulated hardware
// does not constrain — then dispatch in a seed-dependent permutation while
// the run stays bit-for-bit reproducible for that seed.
//
// Inline sleeps: inside run()/run_until(), a sleep that would wake strictly
// before every other live event (and no later than the deadline) cannot be
// observed by anyone, so the sleeper keeps the host thread and the clock
// advances in place. It still consumes the seq (and shuffle key) and counts
// as a dispatch, so the schedule and dispatch_count() match the queued path
// (DESIGN.md §2). step()/step_n() never advance inline.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "rko/base/assert.hpp"
#include "rko/base/rng.hpp"
#include "rko/base/units.hpp"
#include "rko/sim/context.hpp"

namespace rko::trace {
class Tracer;
}

namespace rko::sim {

class Actor;
class Engine;

/// The engine currently dispatching an actor on this host thread, or null.
/// The simulation is single-threaded, so a plain global suffices; it lets
/// primitives (locks, channels) find "the current actor" without threading
/// an Engine& through every call site.
Engine* current_engine();

/// Shorthand: the actor executing right now (asserts one is).
Actor& current_actor();

class Engine {
public:
    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    Nanos now() const { return now_; }

    /// The actor currently executing; asserts when called from the engine
    /// (host) context.
    Actor& current() {
        RKO_ASSERT_MSG(current_ != nullptr, "not running inside an actor");
        return *current_;
    }
    Actor* current_or_null() { return current_; }

    /// Runs until the event queue drains. Returns the final virtual time.
    Nanos run();

    /// Runs until virtual time `deadline` (inclusive) or until idle;
    /// advances the clock to `deadline` if it stops early for idleness is
    /// NOT done — the clock reflects the last executed event.
    Nanos run_until(Nanos deadline);

    bool idle() const { return events_.empty(); }

    /// Dispatches up to `n` events; returns how many actually ran. The
    /// fine-grained driver used by host-time benchmarks of the engine.
    int step_n(int n) {
        int ran = 0;
        while (ran < n && step()) ++ran;
        return ran;
    }

    std::uint64_t dispatch_count() const { return dispatches_; }

    /// Turns on seeded tie-break shuffling (see the file comment). Must be
    /// called before any events are scheduled so every event gets a key.
    void enable_tie_shuffle(std::uint64_t seed) {
        RKO_ASSERT_MSG(events_.empty() && seq_ == 0,
                       "enable_tie_shuffle must precede all scheduling");
        shuffle_ties_ = true;
        shuffle_rng_.reseed(seed);
    }
    bool tie_shuffle_enabled() const { return shuffle_ties_; }

    /// Observability hook: the tracer recording this engine's virtual time,
    /// or null (the default — instrumentation must treat null as "off").
    /// Owned by whoever attached it (api::Machine), never by the engine.
    trace::Tracer* tracer() { return tracer_; }
    void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

    // --- engine-internal interface used by Actor ---
    void schedule(Actor& actor, Nanos at, std::uint64_t generation);
    /// The current actor's sleep until `at`: advances the clock in place
    /// and returns true when nothing else could run first (see the file
    /// comment), else returns false and the caller schedules and yields.
    bool advance_inline(Nanos at);
    Context& main_context() { return main_ctx_; }

private:
    friend class Actor;

    struct Event {
        Nanos at;
        std::uint64_t seq;
        Actor* actor;
        std::uint64_t generation;
        /// Tie-shuffle key: 0 unless shuffling is on. Ordered between `at`
        /// and `seq`, so it only permutes same-timestamp events.
        std::uint64_t key;
        bool operator>(const Event& other) const {
            if (at != other.at) return at > other.at;
            if (key != other.key) return key > other.key;
            return seq > other.seq;
        }
    };

    bool step();
    /// The one dispatch path: purge, stop if drained or the next event is
    /// past `deadline`, else pop + run it. step()/run()/run_until() are all
    /// thin wrappers, so the deadline check and dispatch cannot drift apart.
    bool step_bounded(Nanos deadline);
    void purge_stale();

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
    Context main_ctx_;
    Actor* current_ = nullptr;
    Nanos now_ = 0;
    /// Latest time an inline sleep may reach: run_until's deadline while
    /// it runs, else -1 (no inline advance).
    Nanos inline_limit_ = -1;
    std::uint64_t seq_ = 0;
    std::uint64_t dispatches_ = 0;
    trace::Tracer* tracer_ = nullptr;
    bool shuffle_ties_ = false;
    base::Rng shuffle_rng_{0};
};

} // namespace rko::sim
