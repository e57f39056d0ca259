// Host-time microbenchmarks of the simulator's own primitives — the one
// bench where wall-clock time is the right metric. Reports how fast the
// simulation substrate itself runs: context switches, event dispatch,
// simulated locks, channels, page tables, and the MMU fast path.
#include <benchmark/benchmark.h>

#include "rko/api/machine.hpp"
#include "rko/mem/frame_alloc.hpp"
#include "rko/mem/mmu.hpp"
#include "rko/msg/fabric.hpp"
#include "rko/sim/actor.hpp"
#include "rko/sim/sync.hpp"
#include "rko/smp/smp.hpp"

namespace {

using namespace rko;

void BM_ContextSwitch(benchmark::State& state) {
    // Two actors ping-pong via unpark: each iteration is 2 fiber switches
    // plus 2 engine dispatches.
    sim::Engine engine;
    sim::Actor* a_ptr = nullptr;
    sim::Actor* b_ptr = nullptr;
    bool stop = false;
    sim::Actor a(engine, "a", [&](sim::Actor& self) {
        while (!stop) {
            b_ptr->unpark();
            self.park();
        }
    });
    sim::Actor b(engine, "b", [&](sim::Actor& self) {
        while (!stop) {
            a_ptr->unpark();
            self.park();
        }
    });
    a_ptr = &a;
    b_ptr = &b;
    a.start();
    b.start(1);
    engine.run_until(0);
    std::uint64_t rounds = 0;
    for (auto _ : state) {
        engine.step_n(2);
        ++rounds;
    }
    stop = true;
    a.unpark();
    b.unpark();
    engine.run();
    state.SetItemsProcessed(static_cast<std::int64_t>(rounds * 2));
}
BENCHMARK(BM_ContextSwitch);

void BM_EngineSleepDispatch(benchmark::State& state) {
    sim::Engine engine;
    bool stop = false;
    sim::Actor a(engine, "sleeper", [&](sim::Actor& self) {
        while (!stop) self.sleep_for(10);
    });
    a.start();
    for (auto _ : state) {
        engine.step_n(1);
    }
    stop = true;
    engine.run();
}
BENCHMARK(BM_EngineSleepDispatch);

// The same lone sleeper driven by run_until: nothing else can run before
// its wake-up, so each sleep advances the clock in place without leaving
// the fiber (engine.hpp). One item is one sleep.
void BM_EngineSleepInline(benchmark::State& state) {
    constexpr Nanos kBatch = 64;
    sim::Engine engine;
    bool stop = false;
    sim::Actor a(engine, "sleeper", [&](sim::Actor& self) {
        while (!stop) self.sleep_for(10);
    });
    a.start();
    engine.run_until(0);
    const std::uint64_t before = engine.dispatch_count();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run_until(engine.now() + 10 * kBatch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(engine.dispatch_count() - before));
    stop = true;
    engine.run();
}
BENCHMARK(BM_EngineSleepInline);

void BM_SimSpinLockCycle(benchmark::State& state) {
    sim::Engine engine;
    sim::SpinLock lock;
    bool stop = false;
    sim::Actor a(engine, "locker", [&](sim::Actor&) {
        while (!stop) {
            lock.lock();
            lock.unlock();
        }
    });
    a.start();
    for (auto _ : state) {
        engine.step_n(1);
    }
    stop = true;
    engine.run();
}
BENCHMARK(BM_SimSpinLockCycle);

void BM_ChannelSendPop(benchmark::State& state) {
    sim::Engine engine;
    topo::CostModel costs;
    msg::Channel channel(engine, costs, 0, 1, 1024, nullptr);
    bool stop = false;
    sim::Actor sender(engine, "sender", [&](sim::Actor&) {
        while (!stop) {
            channel.send(msg::make_message(msg::MsgType::kPing, msg::MsgKind::kOneway));
            while (channel.try_pop() != nullptr) {
            }
        }
    });
    sender.start();
    for (auto _ : state) {
        engine.step_n(1);
    }
    stop = true;
    engine.run();
}
BENCHMARK(BM_ChannelSendPop);

void BM_PageTableMapFind(benchmark::State& state) {
    mem::PageTable pt;
    std::uint64_t vpn = 0;
    for (auto _ : state) {
        const mem::Vaddr va = mem::kMmapBase + (vpn % 4096) * mem::kPageSize;
        pt.map(va, mem::kPageSize, mem::kProtRead | mem::kProtWrite);
        benchmark::DoNotOptimize(pt.find(va));
        ++vpn;
    }
}
BENCHMARK(BM_PageTableMapFind);

void BM_VmaInsertErase(benchmark::State& state) {
    mem::VmaTree tree;
    std::uint64_t i = 0;
    for (auto _ : state) {
        const mem::Vaddr start = mem::kMmapBase + (i % 1024) * 16 * mem::kPageSize;
        tree.insert({start, start + 4 * mem::kPageSize, mem::kProtRead});
        tree.erase_range(start, start + 4 * mem::kPageSize);
        ++i;
    }
}
BENCHMARK(BM_VmaInsertErase);

void BM_BuddyAllocFree(benchmark::State& state) {
    sim::Engine engine;
    mem::PhysMem phys(1, 4096);
    topo::CostModel costs;
    costs.frame_alloc_path = 0; // measure host cost, not modeled cost
    mem::FrameAllocator alloc(phys, 0, costs);
    bool stop = false;
    sim::Actor a(engine, "alloc", [&](sim::Actor&) {
        while (!stop) {
            const mem::Paddr p = alloc.alloc();
            alloc.free(p);
        }
    });
    a.start();
    for (auto _ : state) {
        engine.step_n(1);
    }
    stop = true;
    engine.run();
}
BENCHMARK(BM_BuddyAllocFree);

void BM_HistogramAdd(benchmark::State& state) {
    base::Histogram histogram;
    Nanos v = 1;
    for (auto _ : state) {
        histogram.add(v);
        v = (v * 2862933555777941757ULL + 3037000493ULL) % 1000000;
    }
}
BENCHMARK(BM_HistogramAdd);

void BM_WholeMachineBoot(benchmark::State& state) {
    for (auto _ : state) {
        api::Machine machine(smp::popcorn_config(16, 4));
        benchmark::DoNotOptimize(machine.nkernels());
    }
}
BENCHMARK(BM_WholeMachineBoot);

} // namespace

BENCHMARK_MAIN();
