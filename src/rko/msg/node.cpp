#include "rko/msg/node.hpp"

#include <algorithm>
#include <utility>

#include "rko/base/log.hpp"
#include "rko/trace/trace.hpp"

namespace rko::msg {

const char* rpc_status_name(RpcStatus status) {
    switch (status) {
    case RpcStatus::kOk: return "ok";
    case RpcStatus::kPeerDead: return "peer-dead";
    case RpcStatus::kTimeout: return "timeout";
    }
    return "?";
}

Node::Node(sim::Engine& engine, const topo::CostModel& costs, KernelId id, int nworkers)
    : engine_(engine), costs_(costs), id_(id) {
    dispatcher_ = std::make_unique<sim::Actor>(
        engine_, "k" + std::to_string(id) + "/dispatcher",
        [this](sim::Actor& self) { dispatcher_body(self); });
    spawn_workers(blocking_pool_, nworkers, "kworker");
    // Leaf handlers only wait on short local locks, so a small pool keeps
    // up; two avoids head-of-line blocking behind one slow lock.
    spawn_workers(leaf_pool_, std::max(2, nworkers / 2), "kleaf");
}

Node::~Node() = default;

void Node::spawn_workers(Pool& pool, int count, const char* tag) {
    for (int w = 0; w < count; ++w) {
        pool.workers.push_back(std::make_unique<sim::Actor>(
            engine_, "k" + std::to_string(id_) + "/" + tag + std::to_string(w),
            [this, &pool](sim::Actor& self) { worker_body(self, pool); }));
    }
}

void Node::register_handler(MsgType type, HandlerClass handler_class, Handler handler) {
    auto& entry = handlers_[static_cast<std::size_t>(type)];
    RKO_ASSERT_MSG(!entry.registered, "handler registered twice");
    entry = HandlerEntry{std::move(handler), handler_class, true};
}

void Node::attach_inbound(Channel& channel) {
    RKO_ASSERT(channel.dst() == id_);
    inbound_.push_back(&channel);
}

void Node::attach_outbound(KernelId dst, Channel& channel) {
    RKO_ASSERT(channel.src() == id_ && channel.dst() == dst);
    outbound_.emplace(dst, &channel);
}

void Node::start() {
    dispatcher_->start();
    for (auto& worker : blocking_pool_.workers) worker->start();
    for (auto& worker : leaf_pool_.workers) worker->start();
}

void Node::request_stop() {
    stop_requested_ = true;
    dispatcher_->unpark();
    blocking_pool_.idle.notify_all();
    leaf_pool_.idle.notify_all();
}

bool Node::stopped() const {
    if (!dispatcher_->finished()) return false;
    const auto finished = [](const auto& w) { return w->finished(); };
    return std::all_of(blocking_pool_.workers.begin(), blocking_pool_.workers.end(),
                       finished) &&
           std::all_of(leaf_pool_.workers.begin(), leaf_pool_.workers.end(), finished);
}

bool Node::is_leaf_worker(const sim::Actor* actor) const {
    return std::any_of(leaf_pool_.workers.begin(), leaf_pool_.workers.end(),
                       [actor](const auto& w) { return w.get() == actor; });
}

void Node::send(KernelId dst, MessagePtr message) {
    RKO_ASSERT_MSG(dst != id_, "no loopback channel; callers must skip self");
    if (dead_ || dead_peers_.count(dst) != 0) {
        ++dead_letters_;
        return;
    }
    auto it = outbound_.find(dst);
    RKO_ASSERT_MSG(it != outbound_.end(), "no channel to destination kernel");
    it->second->send(std::move(message));
}

MessagePtr Node::finish_rpc(PendingReply& slot, RpcStatus* status) {
    // A kill of THIS node fails every pending ticket; the fiber must
    // unwind, not interpret the failure as a dead peer.
    if (dead_) throw LocalNodeDead{};
    if (slot.status != RpcStatus::kOk) {
        RKO_ASSERT_MSG(status != nullptr,
                       "rpc destination died and the caller cannot handle it");
        *status = slot.status;
        return nullptr;
    }
    if (status != nullptr) *status = RpcStatus::kOk;
    RKO_ASSERT(slot.reply != nullptr);
    return std::move(slot.reply);
}

MessagePtr Node::rpc(KernelId dst, MessagePtr request, RpcStatus* status) {
    sim::Actor& self = engine_.current();
    // Inline handlers run on the dispatcher; leaf handlers on leaf workers.
    // Neither may await a reply (the discipline in the file comment).
    RKO_ASSERT_MSG(&self != dispatcher_.get(), "dispatcher must never block on rpc");
    RKO_ASSERT_MSG(!is_leaf_worker(&self), "leaf handlers must never rpc");
    if (dead_) throw LocalNodeDead{};
    if (dead_peers_.count(dst) != 0) {
        ++rpc_failures_;
        RKO_ASSERT_MSG(status != nullptr,
                       "rpc destination is dead and the caller cannot handle it");
        *status = RpcStatus::kPeerDead;
        return nullptr;
    }

    PendingReply slot;
    slot.waiter = &self;
    slot.outstanding = 1;
    request->hdr.kind = MsgKind::kRequest;
    request->hdr.ticket = next_ticket_++;
    pending_.emplace(request->hdr.ticket, &slot);
    ticket_dst_.emplace(request->hdr.ticket, dst);

    send(dst, std::move(request));
    while (slot.outstanding > 0) self.park();
    return finish_rpc(slot, status);
}

MessagePtr Node::rpc_timed(KernelId dst, MessagePtr request, Nanos timeout,
                           RpcStatus* status) {
    sim::Actor& self = engine_.current();
    RKO_ASSERT_MSG(&self != dispatcher_.get(), "dispatcher must never block on rpc");
    RKO_ASSERT_MSG(!is_leaf_worker(&self), "leaf handlers must never rpc");
    RKO_ASSERT(timeout > 0);
    if (dead_) throw LocalNodeDead{};
    if (dead_peers_.count(dst) != 0) {
        ++rpc_failures_;
        RKO_ASSERT_MSG(status != nullptr,
                       "rpc destination is dead and the caller cannot handle it");
        *status = RpcStatus::kPeerDead;
        return nullptr;
    }

    PendingReply slot;
    slot.waiter = &self;
    slot.outstanding = 1;
    request->hdr.kind = MsgKind::kRequest;
    const std::uint64_t ticket = next_ticket_++;
    request->hdr.ticket = ticket;
    pending_.emplace(ticket, &slot);
    ticket_dst_.emplace(ticket, dst);

    send(dst, std::move(request));
    const Nanos deadline = engine_.now() + timeout;
    while (slot.outstanding > 0) {
        const Nanos remaining = deadline - engine_.now();
        if (remaining <= 0) break;
        self.park_for(remaining);
    }
    if (slot.outstanding > 0 && !dead_) {
        // Timed out: withdraw the ticket and tombstone it so the late reply
        // (if the peer is merely slow, not dead) is dropped, not asserted.
        pending_.erase(ticket);
        ticket_dst_.erase(ticket);
        cancelled_.insert(ticket);
        ++rpc_failures_;
        RKO_ASSERT_MSG(status != nullptr,
                       "rpc timed out and the caller cannot handle it");
        *status = RpcStatus::kTimeout;
        return nullptr;
    }
    return finish_rpc(slot, status);
}

std::vector<MessagePtr> Node::rpc_all(const std::vector<KernelId>& dsts,
                                      const Message& request) {
    std::vector<ScatterItem> items;
    items.reserve(dsts.size());
    for (const KernelId dst : dsts) {
        items.push_back({dst, std::make_unique<Message>(request)});
    }
    return rpc_scatter(std::move(items));
}

std::vector<MessagePtr> Node::rpc_scatter(std::vector<ScatterItem> items) {
    sim::Actor& self = engine_.current();
    RKO_ASSERT_MSG(&self != dispatcher_.get(), "dispatcher must never block on rpc");
    RKO_ASSERT_MSG(!is_leaf_worker(&self), "leaf handlers must never rpc");
    if (dead_) throw LocalNodeDead{};
    std::vector<MessagePtr> replies(items.size());
    if (items.empty()) return replies;

    PendingReply slot;
    slot.waiter = &self;
    slot.outstanding = static_cast<int>(items.size());
    slot.sink = &replies;

    ++scatter_batches_;
    scatter_posts_ += items.size();
    scatter_fanout_.add(static_cast<Nanos>(items.size()));
    for (std::size_t i = 0; i < items.size(); ++i) {
        // Channel::send yields (publish cost, backpressure), so the node
        // can be killed mid-loop. set_dead already failed every ticket
        // posted so far; a ticket emplaced after that sweep would be
        // orphaned — its send drops silently and no reply or failure ever
        // decrements outstanding — so stop posting and unwind instead.
        if (dead_) throw LocalNodeDead{};
        if (dead_peers_.count(items[i].dst) != 0) {
            // Known-dead destination: its reply slot stays null.
            --slot.outstanding;
            ++rpc_failures_;
            slot.status = RpcStatus::kPeerDead;
            continue;
        }
        MessagePtr request = std::move(items[i].request);
        request->hdr.kind = MsgKind::kRequest;
        request->hdr.ticket = next_ticket_++;
        pending_.emplace(request->hdr.ticket, &slot);
        ticket_index_.emplace(request->hdr.ticket, i);
        ticket_dst_.emplace(request->hdr.ticket, items[i].dst);
        send(items[i].dst, std::move(request));
    }
    const Nanos wait_start = engine_.now();
    while (slot.outstanding > 0) self.park();
    if (dead_) throw LocalNodeDead{};
    scatter_wait_.add(engine_.now() - wait_start);
    return replies;
}

void Node::reply(const Message& request, MessagePtr response) {
    RKO_ASSERT(request.hdr.kind == MsgKind::kRequest);
    response->hdr.kind = MsgKind::kReply;
    response->hdr.ticket = request.hdr.ticket;
    send(request.hdr.src, std::move(response));
}

void Node::complete_reply(MessagePtr message) {
    const std::uint64_t ticket = message->hdr.ticket;
    auto it = pending_.find(ticket);
    if (it == pending_.end()) {
        // A reply can legitimately outlive its ticket: rpc_timed withdrew
        // it, or peer-death failed it while the reply (sent pre-death) was
        // already in flight. Both tombstone the ticket; drop the straggler.
        RKO_ASSERT_MSG(cancelled_.erase(ticket) != 0, "reply for unknown ticket");
        ++dead_letters_;
        return;
    }
    PendingReply* slot = it->second;
    pending_.erase(it);
    ticket_dst_.erase(ticket);

    if (slot->sink != nullptr) {
        auto idx_it = ticket_index_.find(ticket);
        RKO_ASSERT(idx_it != ticket_index_.end());
        (*slot->sink)[idx_it->second] = std::move(message);
        ticket_index_.erase(idx_it);
    } else {
        slot->reply = std::move(message);
    }
    if (--slot->outstanding == 0) slot->waiter->unpark();
}

void Node::fail_ticket(std::uint64_t ticket, RpcStatus status) {
    auto it = pending_.find(ticket);
    if (it == pending_.end()) return;
    PendingReply* slot = it->second;
    pending_.erase(it);
    ticket_dst_.erase(ticket);
    ticket_index_.erase(ticket); // a scatter slot's reply entry stays null
    cancelled_.insert(ticket);   // drop the reply if it was already in flight
    slot->status = status;
    ++rpc_failures_;
    if (--slot->outstanding == 0) slot->waiter->unpark();
}

void Node::fail_pending(KernelId dead) {
    std::vector<std::uint64_t> victims;
    for (const auto& [ticket, dst] : ticket_dst_) {
        if (dst == dead) victims.push_back(ticket);
    }
    // Deterministic unpark order (ticket_dst_ iteration order is not).
    std::sort(victims.begin(), victims.end());
    for (const std::uint64_t ticket : victims) {
        fail_ticket(ticket, RpcStatus::kPeerDead);
    }
}

void Node::set_peer_dead(KernelId dead) {
    RKO_ASSERT(dead != id_);
    dead_peers_.insert(dead);
    fail_pending(dead);
}

void Node::set_dead() {
    if (dead_) return;
    dead_ = true;
    std::vector<std::uint64_t> victims;
    victims.reserve(pending_.size());
    for (const auto& [ticket, slot] : pending_) victims.push_back(ticket);
    std::sort(victims.begin(), victims.end());
    for (const std::uint64_t ticket : victims) {
        fail_ticket(ticket, RpcStatus::kPeerDead);
    }
    // Queued handler work dies with the node; the pools only drain.
    blocking_pool_.queue.clear();
    leaf_pool_.queue.clear();
    doorbell();
}

MessagePtr Node::scan_inbound() {
    if (inbound_.empty()) return nullptr;
    for (std::size_t i = 0; i < inbound_.size(); ++i) {
        Channel* channel = inbound_[(scan_cursor_ + i) % inbound_.size()];
        if (MessagePtr m = channel->try_pop()) {
            scan_cursor_ = (scan_cursor_ + i + 1) % inbound_.size();
            return m;
        }
    }
    return nullptr;
}

Nanos Node::earliest_pending() const {
    Nanos earliest = -1;
    for (const Channel* channel : inbound_) {
        const Nanos at = channel->head_ready_at();
        if (at >= 0 && (earliest < 0 || at < earliest)) earliest = at;
    }
    return earliest;
}

void Node::dispatcher_body(sim::Actor& self) {
    for (;;) {
        MessagePtr message = scan_inbound();
        if (message == nullptr) {
            const Nanos next = earliest_pending();
            if (next < 0) {
                if (stop_requested_) break;
                dispatcher_idle_ = true;
                self.park();
                dispatcher_idle_ = false;
                continue;
            }
            self.sleep_for(std::max<Nanos>(1, next - self.now()));
            continue;
        }
        self.sleep_for(costs_.msg_dispatch);
        route(std::move(message));
    }
}

void Node::note_flow_end(const Message& message, const char* name) {
    if (message.trace_flow == 0) return;
    if (trace::Tracer* tr = trace::active(engine_)) {
        tr->flow_end(engine_, id_, name, message.trace_flow);
    }
}

void Node::route(MessagePtr message) {
    const auto type_index = static_cast<std::size_t>(message->hdr.type);
    RKO_ASSERT(type_index < kNumMsgTypes);
    if (dead_) {
        // Black hole: a dead kernel's inbound channels keep draining (the
        // fabric stays well-formed, teardown is unchanged) but nothing is
        // handled and no replies are ever produced.
        ++dead_letters_;
        return;
    }
    ++dispatched_[type_index];
    delivery_latency_.add(engine_.now() - message->ready_at);
    const char* name = msg_type_name(message->hdr.type);

    if (message->hdr.kind == MsgKind::kReply) {
        trace::Span span(engine_, id_, name);
        note_flow_end(*message, name);
        complete_reply(std::move(message));
        return;
    }
    const HandlerEntry& entry = handlers_[type_index];
    RKO_ASSERT_MSG(entry.registered, "message with no registered handler");
    switch (entry.handler_class) {
    case HandlerClass::kInline: {
        trace::Span span(engine_, id_, name);
        note_flow_end(*message, name);
        in_nb_handler_ = true;
        entry.fn(*this, std::move(message));
        in_nb_handler_ = false;
        return;
    }
    case HandlerClass::kLeaf:
        leaf_pool_.queue.push_back(std::move(message));
        leaf_pool_.idle.notify_one();
        return;
    case HandlerClass::kBlocking:
        blocking_pool_.queue.push_back(std::move(message));
        blocking_pool_.idle.notify_one();
        return;
    }
}

void Node::worker_body(sim::Actor& self, Pool& pool) {
    for (;;) {
        if (pool.queue.empty()) {
            if (stop_requested_) break;
            pool.idle.wait(engine_);
            continue;
        }
        MessagePtr message = std::move(pool.queue.front());
        pool.queue.pop_front();
        if (dead_) {
            ++dead_letters_;
            continue;
        }
        const HandlerEntry& entry =
            handlers_[static_cast<std::size_t>(message->hdr.type)];
        const char* name = msg_type_name(message->hdr.type);
        trace::Span span(engine_, id_, name);
        note_flow_end(*message, name);
        ++handlers_running_;
        try {
            entry.fn(*this, std::move(message));
        } catch (const LocalNodeDead&) {
            // The node was killed while this handler awaited a reply; the
            // request it was serving dies with it.
            ++dead_letters_;
        }
        --handlers_running_;
        (void)self;
    }
}

std::uint64_t Node::total_dispatched() const {
    std::uint64_t total = 0;
    for (const auto count : dispatched_) total += count;
    return total;
}

void Node::doorbell() {
    if (dispatcher_idle_) dispatcher_->unpark(costs_.msg_doorbell);
}

MessagePtr rpc_retry(Node& node, KernelId dst,
                     const std::function<MessagePtr()>& make_request, int attempts,
                     Nanos backoff, RpcStatus* status) {
    RKO_ASSERT(attempts >= 1);
    RpcStatus last = RpcStatus::kOk;
    Nanos delay = backoff;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            node.engine().current().sleep_for(delay);
            delay *= 2;
        }
        MessagePtr reply = node.rpc(dst, make_request(), &last);
        if (reply != nullptr) {
            if (status != nullptr) *status = RpcStatus::kOk;
            return reply;
        }
    }
    RKO_ASSERT_MSG(status != nullptr,
                   "rpc_retry exhausted and the caller cannot handle it");
    *status = last;
    return nullptr;
}

} // namespace rko::msg
