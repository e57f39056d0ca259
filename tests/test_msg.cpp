// Unit and integration tests for the inter-kernel messaging layer:
// channels (ordering, backpressure, latency stamps), node dispatch,
// blocking vs non-blocking handlers, RPC, and fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rko/msg/fabric.hpp"
#include "rko/sim/actor.hpp"
#include "rko/sim/sync.hpp"

namespace rko::msg {
namespace {

using namespace rko::time_literals;
using sim::Actor;
using sim::Engine;

struct PingPayload {
    int value = 0;
};
static_assert(std::is_trivially_copyable_v<PingPayload>);

struct Harness {
    Engine engine;
    topo::CostModel costs;
    std::unique_ptr<Fabric> fabric;

    explicit Harness(int nkernels, FabricConfig config = {}) {
        fabric = std::make_unique<Fabric>(engine, costs, nkernels, config);
    }

    void start() { fabric->start_all(); }

    void finish() {
        fabric->request_stop_all();
        engine.run();
        EXPECT_TRUE(fabric->all_stopped());
    }
};

TEST(Message, PayloadRoundTrip) {
    Message m;
    m.set_payload(PingPayload{41});
    EXPECT_EQ(m.payload_as<PingPayload>().value, 41);
    EXPECT_EQ(m.hdr.payload_size, sizeof(PingPayload));
    EXPECT_EQ(m.wire_size(), sizeof(MessageHeader) + sizeof(PingPayload));
}

TEST(MsgTypeNames, AllNamed) {
    for (std::size_t i = 0; i < kNumMsgTypes; ++i) {
        EXPECT_STRNE(msg_type_name(static_cast<MsgType>(i)), "unknown");
    }
}

TEST(Channel, DeliversInOrderWithLatency) {
    Engine engine;
    topo::CostModel costs;
    costs.msg_wire_latency = 10_us;
    int delivered = 0;
    Channel channel(engine, costs, 0, 1, 8, nullptr);
    Actor sender(engine, "sender", [&](Actor&) {
        for (int i = 0; i < 3; ++i) {
            channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{i}));
        }
    });
    Actor receiver(engine, "receiver", [&](Actor& self) {
        while (delivered < 3) {
            MessagePtr m = channel.try_pop();
            if (m == nullptr) {
                self.sleep_for(1_us);
                continue;
            }
            EXPECT_EQ(m->payload_as<PingPayload>().value, delivered);
            EXPECT_GE(self.now(), m->ready_at);
            ++delivered;
        }
    });
    sender.start();
    receiver.start();
    engine.run();
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(channel.sent(), 3u);
    // Each message needed the 10 us wire latency before visibility.
    EXPECT_GE(engine.now(), 10_us);
}

TEST(Channel, BackpressureBlocksSender) {
    Engine engine;
    topo::CostModel costs;
    Channel channel(engine, costs, 0, 1, 2, nullptr);
    int sent = 0;
    Actor sender(engine, "sender", [&](Actor&) {
        for (int i = 0; i < 4; ++i) {
            channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{i}));
            ++sent;
        }
    });
    Actor receiver(engine, "receiver", [&](Actor& self) {
        self.sleep_for(100_us);
        while (channel.try_pop() != nullptr) {
        }
        self.sleep_for(100_us);
        while (channel.try_pop() != nullptr) {
        }
    });
    sender.start();
    receiver.start();
    engine.run();
    EXPECT_EQ(sent, 4);
    EXPECT_GT(channel.backpressure_time(), 0);
}

TEST(Channel, TryPopRespectsReadyAt) {
    Engine engine;
    topo::CostModel costs;
    costs.msg_wire_latency = 1_ms;
    Channel channel(engine, costs, 0, 1, 8, nullptr);
    bool popped_early = false;
    Actor sender(engine, "s", [&](Actor& self) {
        channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{1}));
        // Immediately after send the message is still in flight.
        popped_early = (channel.try_pop() != nullptr);
        self.sleep_for(2_ms);
        EXPECT_NE(channel.try_pop(), nullptr);
    });
    sender.start();
    engine.run();
    EXPECT_FALSE(popped_early);
}

TEST(Node, NonBlockingHandlerRunsOnDispatcher) {
    Harness h(2);
    int handled = 0;
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            EXPECT_TRUE(node.in_nonblocking_handler());
            EXPECT_EQ(m->payload_as<PingPayload>().value, 7);
            ++handled;
        });
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).send(1, make_message(MsgType::kPing, MsgKind::kOneway,
                                               PingPayload{7}));
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(handled, 1);
    h.finish();
}

TEST(Node, RpcRoundTrip) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            const int v = m->payload_as<PingPayload>().value;
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{v * 2}));
        });
    h.start();
    int answer = 0;
    Nanos rtt = 0;
    Actor app(h.engine, "app", [&](Actor& self) {
        const Nanos t0 = self.now();
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{21}));
        rtt = self.now() - t0;
        answer = reply->payload_as<PingPayload>().value;
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(answer, 42);
    // RTT must cover two enqueues + two dispatches at minimum.
    EXPECT_GE(rtt, 2 * (h.costs.msg_enqueue + h.costs.msg_dispatch));
    h.finish();
}

TEST(Node, BlockingHandlerMayRpcToThirdKernel) {
    // k0 asks k1 (blocking handler), whose handler asks k2 (non-blocking).
    Harness h(3);
    h.fabric->node(2).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{m->payload_as<PingPayload>().value + 1}));
        });
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            MessagePtr nested = node.rpc(
                2, make_message(MsgType::kPing, MsgKind::kRequest,
                                PingPayload{m->payload_as<PingPayload>().value * 10}));
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        nested->payload_as<PingPayload>()));
        });
    h.start();
    int answer = 0;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kVmaOp, MsgKind::kRequest, PingPayload{4}));
        answer = reply->payload_as<PingPayload>().value;
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answer, 41);
    h.finish();
}

TEST(Node, RpcAllFansOutAndCollectsInOrder) {
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [k](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            PingPayload{static_cast<int>(k) * 100}));
            });
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        Message request;
        request.hdr.type = MsgType::kPing;
        request.set_payload(PingPayload{0});
        auto replies = h.fabric->node(0).rpc_all({1, 2, 3}, request);
        for (auto& r : replies) answers.push_back(r->payload_as<PingPayload>().value);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{100, 200, 300}));
    h.finish();
}

TEST(Node, ConcurrentRpcsFromManyActors) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [&](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    int completed = 0;
    std::vector<std::unique_ptr<Actor>> apps;
    for (int i = 0; i < 16; ++i) {
        apps.push_back(std::make_unique<Actor>(h.engine, "app", [&, i](Actor&) {
            MessagePtr reply = h.fabric->node(0).rpc(
                1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{i}));
            EXPECT_EQ(reply->payload_as<PingPayload>().value, i);
            ++completed;
        }));
        apps.back()->start();
    }
    h.engine.run_until(10_ms);
    EXPECT_EQ(completed, 16);
    h.finish();
}

TEST(Node, DispatchCountersPerType) {
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) {});
    h.fabric->node(1).register_handler(MsgType::kTaskExit, HandlerClass::kInline,
                                       [](Node&, MessagePtr) {});
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        for (int i = 0; i < 3; ++i) {
            h.fabric->node(0).send(1, make_message(MsgType::kPing, MsgKind::kOneway,
                                                   PingPayload{i}));
        }
        h.fabric->node(0).send(1, make_message(MsgType::kTaskExit, MsgKind::kOneway,
                                               PingPayload{0}));
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(h.fabric->node(1).dispatched(MsgType::kPing), 3u);
    EXPECT_EQ(h.fabric->node(1).dispatched(MsgType::kTaskExit), 1u);
    EXPECT_EQ(h.fabric->node(1).total_dispatched(), 4u);
    EXPECT_EQ(h.fabric->total_messages(), 4u);
    EXPECT_GT(h.fabric->total_bytes(), 0u);
    h.finish();
}

TEST(Fabric, PeersOfExcludesSelf) {
    Engine engine;
    topo::CostModel costs;
    Fabric fabric(engine, costs, 4);
    EXPECT_EQ(fabric.peers_of(2), (std::vector<KernelId>{0, 1, 3}));
    EXPECT_EQ(fabric.nkernels(), 4);
}

TEST(Fabric, WireLatencyRaisesRpcRtt) {
    auto measure = [](Nanos wire) {
        Harness h(2);
        h.costs.msg_wire_latency = wire;
        h.fabric = std::make_unique<Fabric>(h.engine, h.costs, 2);
        h.fabric->node(1).register_handler(
            MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            m->payload_as<PingPayload>()));
            });
        h.start();
        Nanos rtt = 0;
        Actor app(h.engine, "app", [&](Actor& self) {
            const Nanos t0 = self.now();
            h.fabric->node(0).rpc(1, make_message(MsgType::kPing, MsgKind::kRequest,
                                                  PingPayload{1}));
            rtt = self.now() - t0;
        });
        app.start();
        h.engine.run_until(100_ms);
        h.finish();
        return rtt;
    };
    const Nanos fast = measure(0);
    const Nanos slow = measure(20_us);
    // The doorbell wake overlaps the in-flight window, so the added RTT is
    // two wire latencies minus up to two doorbell latencies.
    topo::CostModel defaults;
    EXPECT_GE(slow, fast + 2 * 20_us - 2 * defaults.msg_doorbell);
    EXPECT_LE(slow, fast + 2 * 20_us);
}


TEST(Node, LeafHandlerMayTakeLocalLocks) {
    // Leaf handlers run on a dedicated pool and may park briefly on local
    // locks whose holders never await — verify one does and completes.
    Harness h(2);
    sim::SpinLock local_lock;
    int handled = 0;
    h.fabric->node(1).register_handler(
        MsgType::kPageSurrender, HandlerClass::kLeaf,
        [&](Node& node, MessagePtr m) {
            local_lock.lock();
            // Intentional: this is exactly the behaviour under test.
            h.engine.current().sleep_for(1_us); // rko-lint: allow(lock-across-await): lock-convoy behaviour is what this test measures
            local_lock.unlock();
            ++handled;
            node.reply(*m, make_message(MsgType::kPageSurrender, MsgKind::kReply,
                                        PingPayload{1}));
        });
    h.start();
    // A local actor on kernel 1 holds the lock while the message arrives.
    Actor holder(h.engine, "holder", [&](Actor& self) {
        local_lock.lock();
        self.sleep_for(20_us); // rko-lint: allow(lock-across-await): holder must pin the lock so the handler above contends
        local_lock.unlock();
    });
    holder.start();
    int done = 0;
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).rpc(1, make_message(MsgType::kPageSurrender,
                                              MsgKind::kRequest, PingPayload{0}));
        ++done;
    });
    app.start(1_us);
    h.engine.run_until(10_ms);
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(done, 1);
    h.finish();
}

TEST(Node, RpcAllEmptyTargetsReturnsImmediately) {
    Harness h(2);
    h.start();
    bool returned = false;
    Actor app(h.engine, "app", [&](Actor&) {
        Message request;
        request.hdr.type = MsgType::kPing;
        request.set_payload(PingPayload{0});
        auto replies = h.fabric->node(0).rpc_all({}, request);
        EXPECT_TRUE(replies.empty());
        returned = true;
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_TRUE(returned);
    h.finish();
}

TEST(Node, DeliveryLatencyHistogramPopulated) {
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) {});
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        for (int i = 0; i < 10; ++i) {
            h.fabric->node(0).send(1, make_message(MsgType::kPing, MsgKind::kOneway,
                                                   PingPayload{i}));
        }
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(h.fabric->node(1).delivery_latency().count(), 10u);
    h.finish();
}

TEST(Channel, BytesAccountingMatchesWireSize) {
    Engine engine;
    topo::CostModel costs;
    Channel channel(engine, costs, 0, 1, 8, nullptr);
    Actor sender(engine, "s", [&](Actor&) {
        channel.send(make_message(MsgType::kPing, MsgKind::kOneway, PingPayload{1}));
    });
    sender.start();
    engine.run();
    EXPECT_EQ(channel.bytes_sent(), sizeof(MessageHeader) + sizeof(PingPayload));
    (void)channel.try_pop();
}

TEST(Node, BlockingHandlersRunConcurrentlyOnWorkerPool) {
    // Two slow blocking handlers must overlap (pool size >= 2), so total
    // service time is ~one handler duration, not two.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            h.engine.current().sleep_for(100_us);
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    int completed = 0;
    Nanos finished_at = 0;
    std::vector<std::unique_ptr<Actor>> apps;
    for (int i = 0; i < 2; ++i) {
        apps.push_back(std::make_unique<Actor>(h.engine, "app", [&, i](Actor& self) {
            h.fabric->node(0).rpc(1, make_message(MsgType::kVmaOp, MsgKind::kRequest,
                                                  PingPayload{i}));
            ++completed;
            finished_at = self.now();
        }));
        apps.back()->start();
    }
    h.engine.run_until(10_ms);
    EXPECT_EQ(completed, 2);
    EXPECT_LT(finished_at, 180_us); // overlapped, not serialized (200 us+)
    h.finish();
}

TEST(Node, RpcScatterHeterogeneousPayloadsCollectInItemOrder) {
    // Unlike rpc_all (one request copied to every destination), rpc_scatter
    // ships a DIFFERENT message per item; replies land in item order.
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            PingPayload{m->payload_as<PingPayload>().value * 2}));
            });
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        std::vector<Node::ScatterItem> items;
        // Deliberately not in destination order.
        for (const auto& [dst, v] : {std::pair{3, 30}, {1, 10}, {2, 20}}) {
            items.push_back({static_cast<KernelId>(dst),
                             make_message(MsgType::kPing, MsgKind::kRequest,
                                          PingPayload{v})});
        }
        auto replies = h.fabric->node(0).rpc_scatter(std::move(items));
        for (auto& r : replies) answers.push_back(r->payload_as<PingPayload>().value);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{60, 20, 40}));
    EXPECT_EQ(h.fabric->node(0).scatter_batches(), 1u);
    EXPECT_EQ(h.fabric->node(0).scatter_posts(), 3u);
    h.finish();
}

TEST(Node, RpcScatterRepeatedDestinationKeepsSlotsDistinct) {
    // Two items to the SAME kernel: the ticket, not the source, must route
    // each reply to its own slot.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{m->payload_as<PingPayload>().value + 1}));
        });
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        std::vector<Node::ScatterItem> items;
        items.push_back({1, make_message(MsgType::kPing, MsgKind::kRequest,
                                         PingPayload{100})});
        items.push_back({1, make_message(MsgType::kPing, MsgKind::kRequest,
                                         PingPayload{200})});
        auto replies = h.fabric->node(0).rpc_scatter(std::move(items));
        for (auto& r : replies) answers.push_back(r->payload_as<PingPayload>().value);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{101, 201}));
    h.finish();
}

TEST(Node, RpcScatterEmptyReturnsImmediately) {
    Harness h(2);
    h.start();
    bool returned = false;
    Actor app(h.engine, "app", [&](Actor&) {
        auto replies = h.fabric->node(0).rpc_scatter({});
        EXPECT_TRUE(replies.empty());
        returned = true;
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_TRUE(returned);
    h.finish();
}

TEST(Node, RpcAllCountsAsOneScatterBatch) {
    // rpc_all delegates to rpc_scatter: N posts, one park, one batch.
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            m->payload_as<PingPayload>()));
            });
    }
    h.start();
    Actor app(h.engine, "app", [&](Actor&) {
        Message request;
        request.hdr.type = MsgType::kPing;
        request.set_payload(PingPayload{5});
        auto replies = h.fabric->node(0).rpc_all({1, 2, 3}, request);
        EXPECT_EQ(replies.size(), 3u);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(h.fabric->node(0).scatter_batches(), 1u);
    EXPECT_EQ(h.fabric->node(0).scatter_posts(), 3u);
    EXPECT_EQ(h.fabric->node(0).scatter_fanout().count(), 1u);
    h.finish();
}

TEST(NodeElastic, RpcToDeadPeerFailsImmediately) {
    Harness h(2);
    h.start();
    RpcStatus status = RpcStatus::kOk;
    Nanos elapsed = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        h.fabric->node(0).set_peer_dead(1);
        const Nanos t0 = self.now();
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}),
            &status);
        elapsed = self.now() - t0;
        EXPECT_EQ(reply, nullptr);
    });
    app.start();
    h.engine.run_until(1_ms);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(elapsed, 0); // fails without touching the wire
    EXPECT_EQ(h.fabric->node(0).rpc_failures(), 1u);
    h.finish();
}

TEST(NodeElastic, FailPendingUnparksInFlightRpc) {
    // The reply never comes (the handler swallows the request); declaring
    // the peer dead mid-wait must synthesize the failure and unpark.
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) { /* no reply */ });
    h.start();
    RpcStatus status = RpcStatus::kOk;
    bool returned = false;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}),
            &status);
        EXPECT_EQ(reply, nullptr);
        returned = true;
    });
    app.start();
    Actor reaper(h.engine, "reaper",
                 [&](Actor&) { h.fabric->node(0).set_peer_dead(1); });
    reaper.start(200_us);
    h.engine.run_until(1_ms);
    EXPECT_TRUE(returned);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    h.finish();
}

TEST(NodeElastic, PeerDeathMidSendLeavesNoStrayWakeup) {
    // The peer is declared dead while the caller's send is still paying
    // its publish cost: the rpc fails without ever parking, and the
    // failure must not bank a wake-up that the caller's next, unrelated
    // park would consume.
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) { /* no reply */ });
    h.start();
    RpcStatus status = RpcStatus::kOk;
    sim::WaitList later;
    Nanos woke_at = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        MessagePtr reply = h.fabric->node(0).rpc(
            1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}),
            &status);
        EXPECT_EQ(reply, nullptr);
        later.wait(h.engine);
        woke_at = self.now();
    });
    app.start();
    ASSERT_GT(h.costs.msg_enqueue, 100);
    Actor reaper(h.engine, "reaper",
                 [&](Actor&) { h.fabric->node(0).set_peer_dead(1); });
    reaper.start(100);
    Actor notifier(h.engine, "notifier", [&](Actor&) { later.notify_one(); });
    notifier.start(5_us);
    h.engine.run_until(1_ms);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(woke_at, 5_us) << "a stray wake-up let the wait return early";
    h.finish();
}

TEST(NodeElastic, RpcTimedTimesOutAndDropsLateReply) {
    // The peer is merely slow: the timed rpc gives up, tombstones the
    // ticket, and the straggler reply is dropped instead of asserting.
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kVmaOp, HandlerClass::kBlocking, [&](Node& node, MessagePtr m) {
            h.engine.current().sleep_for(500_us);
            node.reply(*m, make_message(MsgType::kVmaOp, MsgKind::kReply,
                                        m->payload_as<PingPayload>()));
        });
    h.start();
    RpcStatus status = RpcStatus::kOk;
    Nanos elapsed = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        const Nanos t0 = self.now();
        MessagePtr reply = h.fabric->node(0).rpc_timed(
            1, make_message(MsgType::kVmaOp, MsgKind::kRequest, PingPayload{1}),
            100_us, &status);
        elapsed = self.now() - t0;
        EXPECT_EQ(reply, nullptr);
    });
    app.start();
    h.engine.run_until(5_ms);
    EXPECT_EQ(status, RpcStatus::kTimeout);
    EXPECT_GE(elapsed, 100_us);
    EXPECT_LT(elapsed, 500_us);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    EXPECT_GE(h.fabric->node(0).dead_letters(), 1u); // the dropped straggler
    h.finish();
}

TEST(NodeElastic, RpcRetryBacksOffInVirtualTimeThenReportsLastFailure) {
    Harness h(2);
    h.start();
    RpcStatus status = RpcStatus::kOk;
    Nanos elapsed = -1;
    Actor app(h.engine, "app", [&](Actor& self) {
        h.fabric->node(0).set_peer_dead(1);
        const Nanos t0 = self.now();
        MessagePtr reply = rpc_retry(
            h.fabric->node(0), 1,
            [] {
                return make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1});
            },
            3, 10_us, &status);
        elapsed = self.now() - t0;
        EXPECT_EQ(reply, nullptr);
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_EQ(elapsed, 10_us + 20_us); // exponential: sleeps before retries 2, 3
    EXPECT_EQ(h.fabric->node(0).rpc_failures(), 3u);
    h.finish();
}

TEST(NodeElastic, RpcRetrySucceedsFirstTryOnLivePeer) {
    Harness h(2);
    h.fabric->node(1).register_handler(
        MsgType::kPing, HandlerClass::kInline, [](Node& node, MessagePtr m) {
            node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                        PingPayload{m->payload_as<PingPayload>().value + 1}));
        });
    h.start();
    RpcStatus status = RpcStatus::kPeerDead;
    int answer = 0;
    Actor app(h.engine, "app", [&](Actor&) {
        MessagePtr reply = rpc_retry(
            h.fabric->node(0), 1,
            [] {
                return make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{41});
            },
            3, 10_us, &status);
        ASSERT_NE(reply, nullptr);
        answer = reply->payload_as<PingPayload>().value;
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(status, RpcStatus::kOk);
    EXPECT_EQ(answer, 42);
    h.finish();
}

TEST(NodeElastic, ScatterToDeadPeerLeavesNullSlotOthersComplete) {
    Harness h(4);
    for (KernelId k = 1; k < 4; ++k) {
        h.fabric->node(k).register_handler(
            MsgType::kPing, HandlerClass::kInline, [k](Node& node, MessagePtr m) {
                node.reply(*m, make_message(MsgType::kPing, MsgKind::kReply,
                                            PingPayload{static_cast<int>(k)}));
            });
    }
    h.start();
    std::vector<int> answers;
    Actor app(h.engine, "app", [&](Actor&) {
        h.fabric->node(0).set_peer_dead(2);
        std::vector<Node::ScatterItem> items;
        for (KernelId k = 1; k < 4; ++k) {
            items.push_back({k, make_message(MsgType::kPing, MsgKind::kRequest,
                                             PingPayload{0})});
        }
        auto replies = h.fabric->node(0).rpc_scatter(std::move(items));
        ASSERT_EQ(replies.size(), 3u);
        EXPECT_NE(replies[0], nullptr);
        EXPECT_EQ(replies[1], nullptr); // the dead destination's slot
        EXPECT_NE(replies[2], nullptr);
        for (auto& r : replies) {
            answers.push_back(r == nullptr ? -1 : r->payload_as<PingPayload>().value);
        }
    });
    app.start();
    h.engine.run_until(10_ms);
    EXPECT_EQ(answers, (std::vector<int>{1, -1, 3}));
    h.finish();
}

TEST(NodeElastic, SetDeadFailsPendingWithLocalNodeDeadAndBlackHoles) {
    Harness h(2);
    h.fabric->node(1).register_handler(MsgType::kPing, HandlerClass::kInline,
                                       [](Node&, MessagePtr) { /* no reply */ });
    h.start();
    bool unwound = false;
    Actor app(h.engine, "app", [&](Actor&) {
        try {
            h.fabric->node(0).rpc(
                1, make_message(MsgType::kPing, MsgKind::kRequest, PingPayload{1}));
        } catch (const LocalNodeDead&) {
            unwound = true;
        }
    });
    app.start();
    Actor killer(h.engine, "killer", [&](Actor&) { h.fabric->node(0).set_dead(); });
    killer.start(100_us);
    // Traffic AT the dead node is black-holed, not asserted on.
    Actor peer(h.engine, "peer", [&](Actor&) {
        h.fabric->node(1).send(0, make_message(MsgType::kTaskExit, MsgKind::kOneway,
                                               PingPayload{0}));
    });
    peer.start(200_us);
    h.engine.run_until(1_ms);
    EXPECT_TRUE(unwound);
    EXPECT_EQ(h.fabric->node(0).pending_replies(), 0u);
    EXPECT_TRUE(h.fabric->node(0).dead());
    EXPECT_GE(h.fabric->node(0).dead_letters(), 1u);
    h.finish();
}

} // namespace
} // namespace rko::msg
