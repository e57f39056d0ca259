// Per-kernel messaging endpoint.
//
// Each kernel owns a Node: N-1 inbound channels, one dispatcher actor that
// demuxes arriving messages, a pool of kernel-worker actors for handlers
// that may block, and a pending-reply table implementing RPC.
//
// Handler discipline (enforced with assertions, see DESIGN.md §6):
//   - INLINE handlers run on the dispatcher. Pure local state updates: no
//     locks that can park, no awaits. (Replies are always completed inline.)
//   - LEAF handlers run on a dedicated leaf-worker pool. They may take
//     local kernel locks (whose holders never await — see the lock rule)
//     and reply(), but must never rpc().
//   - BLOCKING handlers run on the kworker pool and may rpc(), but only to
//     INLINE or LEAF handlers. Wait chains therefore have depth one, every
//     chain terminates in a handler that only waits on local locks whose
//     holders never await, and distributed deadlock is impossible by
//     construction.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rko/base/stats.hpp"
#include "rko/msg/channel.hpp"
#include "rko/msg/message.hpp"
#include "rko/sim/actor.hpp"
#include "rko/sim/sync.hpp"

namespace rko::msg {

/// Where a handler is allowed to run and what it may do; see the file
/// comment for the discipline each class implies.
enum class HandlerClass { kInline, kLeaf, kBlocking };

/// Outcome of an rpc/rpc_timed call. kPeerDead covers both "the destination
/// was already declared dead" (fails before the send) and "the destination
/// was declared dead while we waited" (fail_pending synthesized the wake).
enum class RpcStatus : std::uint8_t { kOk, kPeerDead, kTimeout };

const char* rpc_status_name(RpcStatus status);

/// Thrown out of rpc/rpc_scatter waits on a node that has itself been
/// killed (set_dead): the fiber unwinds instead of parking forever on
/// replies that will never be dispatched. Caught by the kworker loop and by
/// the api layer's guest-thread trampolines.
struct LocalNodeDead {};

class Node {
public:
    using Handler = std::function<void(Node&, MessagePtr)>;

    Node(sim::Engine& engine, const topo::CostModel& costs, KernelId id,
         int nworkers);
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
    ~Node();

    KernelId id() const { return id_; }
    sim::Engine& engine() { return engine_; }
    const topo::CostModel& costs() const { return costs_; }

    /// Registers the handler for a message type. Must precede start().
    void register_handler(MsgType type, HandlerClass handler_class, Handler handler);

    /// Wires an inbound channel (called by Fabric) and returns the doorbell
    /// the channel should ring on delivery.
    void attach_inbound(Channel& channel);
    void attach_outbound(KernelId dst, Channel& channel);

    void start();

    /// Asks the dispatcher and workers to finish once drained; actors
    /// complete on a subsequent engine run.
    void request_stop();
    bool stopped() const;

    // --- Sending (valid from any actor except where noted) ---

    /// Fire-and-forget. Dropped (dead-letter counted) when this node is
    /// dead or the destination has been declared dead.
    void send(KernelId dst, MessagePtr message);

    /// Request/response; parks the caller until the reply arrives.
    /// Must not be called from a non-blocking handler or the dispatcher.
    /// With `status` null any failure is fatal (the pre-elastic contract:
    /// peers are immortal). With `status` set, a dead destination returns
    /// null with *status == kPeerDead instead of asserting — both when the
    /// peer was already dead at call time and when it is declared dead
    /// mid-wait (fail_pending). Throws LocalNodeDead if THIS node is dead.
    MessagePtr rpc(KernelId dst, MessagePtr request, RpcStatus* status = nullptr);

    /// Like rpc but gives up after `timeout` (virtual time): the pending
    /// ticket is withdrawn, the ticket is tombstoned so a late reply is
    /// silently dropped, and null is returned with *status == kTimeout.
    /// The wedge-proof variant the balancer uses to steal from peers that
    /// may die between the gossip row and the steal request.
    MessagePtr rpc_timed(KernelId dst, MessagePtr request, Nanos timeout,
                         RpcStatus* status = nullptr);

    /// Sends `response` as the reply to `request`.
    void reply(const Message& request, MessagePtr response);

    /// Sends `request` to every kernel in `dsts` and parks until all
    /// replies arrive; returns them in dst order. The request is copied per
    /// destination.
    std::vector<MessagePtr> rpc_all(const std::vector<KernelId>& dsts,
                                    const Message& request);

    /// Heterogeneous scatter-gather: posts every (dst, request) pair and
    /// parks ONCE until all replies arrive; returns them in post order.
    /// Unlike rpc_all the payloads differ per destination, and a
    /// destination may appear more than once (tickets, not kernel ids,
    /// correlate replies). The caller pays the posts' enqueue costs
    /// serially but waits out every round trip concurrently — the fan-out
    /// primitive the page-ownership protocol's parallel invalidation and
    /// ranged revokes are built on.
    struct ScatterItem {
        KernelId dst;
        MessagePtr request;
    };
    /// Posts to destinations already declared dead are not sent and their
    /// reply slots stay null; a destination dying mid-wait also nulls its
    /// slot (fail_pending). Callers that can race peer death must
    /// .filter/skip null entries; with no dead peers every entry is set.
    std::vector<MessagePtr> rpc_scatter(std::vector<ScatterItem> items);

    // --- Elastic membership hooks (rko/elastic) ---

    /// Marks `dead` unreachable: future rpc/send to it fail immediately and
    /// every in-flight rpc ticket destined for it is failed (kPeerDead) and
    /// its waiter unparked. Idempotent.
    void set_peer_dead(KernelId dead);
    bool peer_dead(KernelId peer) const { return dead_peers_.count(peer) != 0; }
    /// Fails every in-flight rpc ticket destined for `dead` without marking
    /// the peer (drain uses set_peer_dead; kill uses both).
    void fail_pending(KernelId dead);
    /// Clears the dead mark (hot re-join of a previously parted kernel).
    void set_peer_alive(KernelId peer) { dead_peers_.erase(peer); }

    /// Kills THIS node: every pending rpc fails (waiters throw
    /// LocalNodeDead on resume), outbound sends drop, and the dispatcher
    /// black-holes everything it dequeues from then on — inbound channels
    /// keep draining so peers' send costs stay paid and teardown is normal.
    void set_dead();
    bool dead() const { return dead_; }
    /// Handlers currently executing on a worker (leaf or blocking). A
    /// killed node's in-flight handlers still run to completion against its
    /// process sites, so whoever tears those sites down waits for zero.
    int handlers_running() const { return handlers_running_; }

    /// Messages dropped because this node or the destination was dead.
    std::uint64_t dead_letters() const { return dead_letters_; }
    /// Rpc tickets that failed (peer death or timeout) instead of replying.
    std::uint64_t rpc_failures() const { return rpc_failures_; }

    // --- Introspection ---
    std::uint64_t dispatched(MsgType type) const {
        return dispatched_[static_cast<std::size_t>(type)];
    }
    std::uint64_t total_dispatched() const;
    const base::Histogram& delivery_latency() const { return delivery_latency_; }
    // Scatter-gather accounting (rpc_all and rpc_scatter; msg.scatter.* in
    // Machine::collect_metrics): batches posted, total requests in them,
    // the fan-out distribution, and the overlapped wait per batch — what a
    // serial per-destination loop would have multiplied by the fan-out.
    std::uint64_t scatter_batches() const { return scatter_batches_; }
    std::uint64_t scatter_posts() const { return scatter_posts_; }
    const base::Histogram& scatter_fanout() const { return scatter_fanout_; }
    const base::Histogram& scatter_wait() const { return scatter_wait_; }
    bool in_nonblocking_handler() const { return in_nb_handler_; }
    /// RPCs awaiting a reply (must be 0 at quiesce).
    std::size_t pending_replies() const { return pending_.size(); }

    /// Rung by inbound channels when a message lands; wakes an idle
    /// dispatcher after the modeled IPI latency.
    void doorbell();

private:
    struct PendingReply {
        sim::Actor* waiter = nullptr;
        MessagePtr reply;
        int outstanding = 1; ///< for rpc_all fan-in
        std::vector<MessagePtr>* sink = nullptr;
        std::size_t sink_index = 0;
        RpcStatus status = RpcStatus::kOk; ///< sticky: any failed ticket
    };

    struct Pool {
        std::vector<std::unique_ptr<sim::Actor>> workers;
        std::deque<MessagePtr> queue;
        sim::WaitList idle;
    };

    void dispatcher_body(sim::Actor& self);
    void worker_body(sim::Actor& self, Pool& pool);
    MessagePtr scan_inbound();
    Nanos earliest_pending() const;
    void route(MessagePtr message);
    void complete_reply(MessagePtr message);
    /// Fails one pending ticket with `status`: reply stays null, the slot's
    /// status is marked, and the waiter is unparked once fan-in drains.
    void fail_ticket(std::uint64_t ticket, RpcStatus status);
    /// Post-park failure handling shared by rpc/rpc_timed.
    MessagePtr finish_rpc(PendingReply& slot, RpcStatus* status);
    /// Lands the flow arrow carried by `message` on this kernel's track.
    void note_flow_end(const Message& message, const char* name);
    bool is_leaf_worker(const sim::Actor* actor) const;
    void spawn_workers(Pool& pool, int count, const char* tag);

    sim::Engine& engine_;
    const topo::CostModel& costs_;
    KernelId id_;
    bool stop_requested_ = false;

    struct HandlerEntry {
        Handler fn;
        HandlerClass handler_class = HandlerClass::kInline;
        bool registered = false;
    };
    std::array<HandlerEntry, kNumMsgTypes> handlers_{};

    std::vector<Channel*> inbound_;
    std::unordered_map<KernelId, Channel*> outbound_;
    std::size_t scan_cursor_ = 0;

    std::unique_ptr<sim::Actor> dispatcher_;
    bool dispatcher_idle_ = false;
    Pool blocking_pool_;
    Pool leaf_pool_;
    bool in_nb_handler_ = false;

    std::uint64_t next_ticket_ = 1;
    std::unordered_map<std::uint64_t, PendingReply*> pending_;
    std::unordered_map<std::uint64_t, std::size_t> ticket_index_; // rpc_all fan-in order
    std::unordered_map<std::uint64_t, KernelId> ticket_dst_;      // for fail_pending
    std::unordered_set<std::uint64_t> cancelled_; // timed-out tickets: drop late replies
    std::unordered_set<KernelId> dead_peers_;
    bool dead_ = false;
    std::uint64_t dead_letters_ = 0;
    int handlers_running_ = 0;
    std::uint64_t rpc_failures_ = 0;

    std::array<std::uint64_t, kNumMsgTypes> dispatched_{};
    base::Histogram delivery_latency_;
    std::uint64_t scatter_batches_ = 0;
    std::uint64_t scatter_posts_ = 0;
    base::Histogram scatter_fanout_;
    base::Histogram scatter_wait_;
};

/// Bounded retry with exponential backoff in virtual time. Calls
/// `make_request()` to build a fresh message per attempt (messages are
/// consumed by rpc), sleeping `backoff`, 2*backoff, 4*backoff, ... between
/// attempts. Returns the first successful reply, or null with *status
/// holding the last failure after `attempts` tries. Runs on the calling
/// actor; the same call-site restrictions as Node::rpc apply.
MessagePtr rpc_retry(Node& node, KernelId dst,
                     const std::function<MessagePtr()>& make_request, int attempts,
                     Nanos backoff, RpcStatus* status = nullptr);

} // namespace rko::msg
