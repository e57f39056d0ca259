// rko/home: sharded page/VMA directory homes (DESIGN.md §14).
//
// Unit coverage: the home Map's hash/rendezvous properties (stability,
// full-shard coverage, minimal disruption on membership shrink) and the
// unsharded fallback. Behavioural coverage: a sharded machine spreads
// directory transactions over the eligible kernels (home.msgs_per_kernel)
// while serving VMA validations from the replicated cache
// (vma.replica_hit); guest-visible results match the unsharded run; and —
// the failover contract — killing a shard-owning kernel mid-fault-storm
// makes the survivors shrink the map, census-rebuild the inherited
// shards, and complete every retried fault. Audits (all nine families,
// `home` included) run at every quiesce point in these tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/check/invariants.hpp"
#include "rko/home/home.hpp"

namespace rko::api {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::Vaddr;

std::uint64_t counter_value(trace::MetricsRegistry& m, std::string_view name) {
    const trace::Counter* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value;
}

double gauge_value(trace::MetricsRegistry& m, const std::string& name) {
    const trace::Gauge* g = m.find_gauge(name);
    return g == nullptr ? 0.0 : g->value;
}

// ---------------------------------------------------------------------------
// home::Map unit tests.
// ---------------------------------------------------------------------------

TEST(HomeMap, ShardOfIsStableAndCoversAllShards) {
    home::Map map;
    map.init(8, 0b1111);
    ASSERT_EQ(map.shards(), 8);
    std::set<int> hit;
    for (std::uint64_t vpn = 0; vpn < 4096; ++vpn) {
        const int s = map.shard_of(vpn);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 8);
        EXPECT_EQ(s, map.shard_of(vpn)); // pure
        hit.insert(s);
    }
    EXPECT_EQ(hit.size(), 8u) << "splitmix64 left a shard empty over 4k VPNs";
}

TEST(HomeMap, UnshardedEverythingIsShardZero) {
    home::Map map;
    map.init(1, 0b1111);
    EXPECT_EQ(map.shards(), 1);
    for (std::uint64_t vpn = 0; vpn < 64; ++vpn) {
        EXPECT_EQ(map.shard_of(vpn), 0);
    }
}

TEST(HomeMap, RendezvousOwnerIsAMaskMember) {
    for (Pid pid = 1; pid <= 3; ++pid) {
        for (int shard = 0; shard < 8; ++shard) {
            const topo::KernelId owner = home::Map::owner_in(pid, shard, 0b1011);
            EXPECT_TRUE(owner == 0 || owner == 1 || owner == 3)
                << "pid " << pid << " shard " << shard;
        }
    }
}

// The property failover depends on: removing a kernel only moves the
// shards that kernel owned; every other (pid, shard) keeps its owner.
TEST(HomeMap, RemovalOnlyMovesTheDeadKernelsShards) {
    constexpr topo::KernelMask kBefore = 0b1111;
    constexpr topo::KernelMask kAfter = kBefore & ~topo::kbit(2);
    for (Pid pid = 1; pid <= 4; ++pid) {
        for (int shard = 0; shard < 16; ++shard) {
            const topo::KernelId before = home::Map::owner_in(pid, shard, kBefore);
            const topo::KernelId after = home::Map::owner_in(pid, shard, kAfter);
            if (before == 2) {
                EXPECT_NE(after, 2);
            } else {
                EXPECT_EQ(after, before)
                    << "pid " << pid << " shard " << shard
                    << " moved although its owner survived";
            }
        }
    }
}

TEST(HomeMap, RemoveKernelShrinksEligibility) {
    home::Map map;
    map.init(4, 0b1111);
    EXPECT_TRUE(map.remove_kernel(1));
    EXPECT_EQ(map.eligible(), 0b1101u);
    EXPECT_FALSE(map.remove_kernel(1)); // idempotent
    EXPECT_EQ(map.eligible(), 0b1101u);
    for (int shard = 0; shard < 4; ++shard) {
        EXPECT_NE(map.owner_of(1, 0, shard), 1);
    }
}

TEST(HomeMap, HomeOfFallsBackToOrigin) {
    home::Map unsharded;
    unsharded.init(1, 0b1111);
    EXPECT_EQ(unsharded.home_of(1, 2, 0x1234), 2);

    // The one-shard map names the origin for every pid and page, before
    // and after every non-origin kernel leaves, and never routes directory
    // traffic (or lets a directory live) anywhere else.
    constexpr topo::KernelId kOrigin = 2;
    home::Map degenerate;
    degenerate.init(1, 0b1111);
    for (int pass = 0; pass < 2; ++pass) {
        for (Pid pid = 1; pid <= 6; ++pid) {
            for (std::uint64_t vpn : {0x0ull, 0x1234ull, 0xdeadbeefull}) {
                EXPECT_EQ(degenerate.home_of(pid, kOrigin, vpn), kOrigin)
                    << "pass " << pass << " pid " << pid << " vpn " << vpn;
            }
            EXPECT_EQ(degenerate.owner_among(pid, kOrigin, 0, 0b0011), kOrigin);
        }
        EXPECT_EQ(degenerate.homes(kOrigin), topo::kbit(kOrigin));
        EXPECT_TRUE(degenerate.may_home(kOrigin, kOrigin));
        for (topo::KernelId k : {0, 1, 3}) {
            EXPECT_FALSE(degenerate.may_home(k, kOrigin)) << "kernel " << k;
            degenerate.remove_kernel(k);
        }
        EXPECT_EQ(degenerate.eligible(), topo::kbit(kOrigin));
    }

    home::Map emptied;
    emptied.init(4, 0b0100);
    emptied.remove_kernel(2); // eligibility can reach zero only in theory
    EXPECT_EQ(emptied.home_of(1, 0, 0x1234), 0);

    home::Map sharded;
    sharded.init(4, 0b1111);
    const topo::KernelId home = sharded.home_of(1, 0, 0x1234);
    EXPECT_EQ(home, home::Map::owner_in(1, sharded.shard_of(0x1234), 0b1111));
    EXPECT_EQ(sharded.homes(0), 0b1111u);
}

// RKO_HOME_SHARDS accepts only a whole positive decimal integer: a typo
// must fail loudly rather than quietly run the one-shard map.
TEST(HomeMap, ParseShardsAcceptsOnlyWholePositiveIntegers) {
    EXPECT_EQ(home::parse_shards("1"), 1);
    EXPECT_EQ(home::parse_shards("4"), 4);
    EXPECT_EQ(home::parse_shards("064"), 64);
    EXPECT_EQ(home::parse_shards("2147483647"), 2147483647);
    for (const char* bad : {"", "four", "0", "00", "-2", "+4", "4x", "4 ", " 4",
                            "4.0", "0x10", "2147483648", "99999999999999999999"}) {
        EXPECT_EQ(home::parse_shards(bad), std::nullopt) << "'" << bad << "'";
    }
}

// ---------------------------------------------------------------------------
// Sharded-machine behaviour.
// ---------------------------------------------------------------------------

MachineConfig home_config(int nkernels, int shards) {
    MachineConfig config;
    config.ncores = 2 * nkernels;
    config.nkernels = nkernels;
    config.frames_per_kernel = 4096;
    config.home_shards = shards;
    config.check = true; // audit all nine families at every quiesce point
    return config;
}

/// Threads on every kernel each increment a private slot in every page of
/// a shared region, then one reader sums the slots. Returns the sum.
std::uint64_t run_shared_increments(Machine& machine, int nthreads, int pages,
                                    int rounds) {
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&, pages](Guest& g) {
            buf = g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
        },
        0);
    std::vector<Thread*> workers;
    for (int i = 0; i < nthreads; ++i) {
        workers.push_back(&process.spawn(
            [&, i, pages, rounds](Guest& g) {
                g.join(init);
                for (int r = 0; r < rounds; ++r) {
                    const int p = (i + 3 * r) % pages;
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize +
                                  static_cast<Vaddr>(i) * 8,
                              [](std::uint32_t v) { return v + 1; });
                }
            },
            static_cast<topo::KernelId>(i % machine.nkernels())));
    }
    std::uint64_t sum = 0;
    process.spawn(
        [&, nthreads, pages](Guest& g) {
            for (Thread* w : workers) g.join(*w);
            for (int p = 0; p < pages; ++p) {
                for (int i = 0; i < nthreads; ++i) {
                    sum += g.read<std::uint32_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize +
                        static_cast<Vaddr>(i) * 8);
                }
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    return sum;
}

// The tentpole's load claim: with sharded homes, directory transactions
// run at the page's home, so non-origin kernels serve a share of them and
// the origin's share drops. The replicated VMA cache serves the remote
// homes' fault validations (replica hits, with the `home` audit family
// proving no replica was stale at quiesce).
TEST(Home, ShardedFaultsSpreadHomeLoadAcrossKernels) {
    constexpr int kThreads = 8;
    constexpr int kPages = 24;
    constexpr int kRounds = 12;
    Machine machine(home_config(4, 8));
    const std::uint64_t sum = run_shared_increments(machine, kThreads, kPages,
                                                    kRounds);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kRounds);

    auto metrics = machine.collect_metrics();
    int serving = 0;
    double origin_share = 0, total = 0;
    for (int k = 0; k < 4; ++k) {
        const double v =
            gauge_value(metrics, "home.msgs_per_kernel.k" + std::to_string(k));
        total += v;
        if (k == 0) origin_share = v;
        if (v > 0) ++serving;
    }
    EXPECT_GE(serving, 3) << "sharding left the directory load on one kernel";
    ASSERT_GT(total, 0);
    EXPECT_LT(origin_share / total, 0.75) << "origin still serves the bulk";
    EXPECT_GT(counter_value(metrics, "vma.replica_hit"), 0u);
}

// With home_shards == 1 every transaction still runs at the origin and no
// other kernel touches directory state — the pre-home wire behaviour.
TEST(Home, UnshardedKeepsEveryTransactionAtTheOrigin) {
    Machine machine(home_config(4, 1));
    const std::uint64_t sum = run_shared_increments(machine, 8, 8, 6);
    EXPECT_EQ(sum, 8u * 6u);
    auto metrics = machine.collect_metrics();
    for (int k = 1; k < 4; ++k) {
        EXPECT_EQ(gauge_value(metrics,
                              "home.msgs_per_kernel.k" + std::to_string(k)),
                  0.0)
            << "kernel " << k << " served directory traffic unsharded";
    }
}

// Guest-visible results must not depend on the shard count.
TEST(Home, ShardedAndUnshardedAgreeOnGuestState) {
    Machine unsharded(home_config(4, 1));
    Machine sharded(home_config(4, 8));
    const std::uint64_t a = run_shared_increments(unsharded, 6, 12, 8);
    const std::uint64_t b = run_shared_increments(sharded, 6, 12, 8);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, 6u * 8u);
}

// ---------------------------------------------------------------------------
// Failover: the satellite scenario from the issue. A shard-owning kernel
// dies mid-fault-storm; survivors shrink the map, census-rebuild the
// inherited shards, and every retried fault completes.
// ---------------------------------------------------------------------------

MachineConfig failover_config(int shards) {
    MachineConfig config = home_config(4, shards);
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.balance.migration_budget = 4;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    return config;
}

TEST(Home, KillingAShardOwnerRehomesAndRetriedFaultsComplete) {
    constexpr int kPages = 16;
    Machine machine(failover_config(8));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Anchor k3 so idle-steal cannot move its storm threads to safety —
    // the kill must land while k3 both owns shards and runs faulting code.
    for (int c = 0; c < 2; ++c) {
        process.spawn([](Guest& g) { g.compute(4_ms); }, 3);
    }
    std::vector<Thread*> storm;
    for (int i = 0; i < 6; ++i) {
        storm.push_back(&process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 60; ++r) {
                    const int p = (i + 5 * r) % kPages;
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize +
                                  static_cast<Vaddr>(i) * 8,
                              [](std::uint32_t v) { return v + 1; });
                    g.compute(10_us);
                }
            },
            static_cast<topo::KernelId>(i % 3))); // k0..k2 — they survive
    }
    machine.run_until(250_us);
    machine.kill_kernel(3);
    machine.run();
    process.check_all_joined();

    // Survivor threads all completed their 60 rounds (faults stalled on
    // rebuilding shards were retried, not lost or deadlocked).
    for (Thread* t : storm) EXPECT_EQ(t->exit_status(), 0);
    EXPECT_TRUE(machine.is_killed(3));

    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "elastic.home_rebuilds"), 1u)
        << "no survivor inherited and rebuilt a shard of the dead kernel";

    // Every page is still readable post-failover: entries for the dead
    // kernel's shards were reconstructed at their new homes (a page whose
    // sole copy died refaults as zero-fill, but the fault COMPLETES).
    std::uint64_t reads = 0;
    process.spawn(
        [&](Guest& g) {
            for (int p = 0; p < kPages; ++p) {
                (void)g.read<std::uint32_t>(buf + static_cast<Vaddr>(p) *
                                                      kPageSize);
                ++reads;
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(reads, static_cast<std::uint64_t>(kPages));
}

// Drain takes the voluntary path through the same machinery: the drained
// kernel leaves the map, waits for its slices to quiesce, parts, and hands
// its page copies to every home — no data is lost. Both shard counts run
// the one drain protocol; only with several shards does the drained kernel
// own a slice, so only then does a survivor rebuild one.
TEST(Home, DrainingAShardOwnerPreservesDataAndRehomes) {
    constexpr int kPages = 8;
    for (const int shards : {1, 8}) {
        SCOPED_TRACE("home_shards=" + std::to_string(shards));
        Machine machine(failover_config(shards));
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        auto& writer = process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint32_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                           static_cast<std::uint32_t>(0x100 + p));
                }
            },
            2);
        process.spawn([](Guest& g) { g.compute(2_ms); }, 0); // keep ticks alive
        machine.run_until(300_us);
        ASSERT_TRUE(writer.finished());
        machine.drain_kernel(2);
        machine.run();

        auto metrics = machine.collect_metrics();
        if (shards > 1) {
            EXPECT_GE(counter_value(metrics, "elastic.home_rebuilds"), 1u);
        } else {
            EXPECT_EQ(counter_value(metrics, "elastic.home_rebuilds"), 0u);
        }

        std::vector<std::uint32_t> seen(kPages, 0);
        process.spawn(
            [&](Guest& g) {
                for (int p = 0; p < kPages; ++p) {
                    seen[static_cast<std::size_t>(p)] = g.read<std::uint32_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize);
                }
            },
            0);
        machine.run();
        process.check_all_joined();
        for (int p = 0; p < kPages; ++p) {
            EXPECT_EQ(seen[static_cast<std::size_t>(p)],
                      static_cast<std::uint32_t>(0x100 + p))
                << "page " << p << " lost its data across the drain";
        }
    }
}


// Regression: a drain parts as soon as its directory slice looks idle, but
// a fault already parked on one of the slice's busy bits wakes after that.
// It used to run its transaction at the old home anyway — racing the
// successor's PTE census, so a write granted there left a copy the rebuilt
// directory never named (pages.pte_not_in_holders, then lost increments).
// It must answer kRetry and re-route instead. Ten writers hammer one page
// from four kernels (two hot-joined mid-run) while k1, a home, drains; the
// seeds are ones whose schedules land a parked fault in that window.
TEST(Home, DrainRetriesFaultsParkedOnItsSlice) {
    constexpr int kWriters = 10;
    constexpr int kRounds = 10;
    for (const std::uint64_t seed : {6ULL, 22ULL, 30ULL, 163ULL}) {
        MachineConfig config = failover_config(4);
        config.check = false; // audited explicitly below, with the seed
        config.seed = seed;
        config.shuffle_ties = true;
        config.fabric.delivery_jitter = 2'000;
        config.fabric.jitter_seed = seed;
        config.balance.migration_budget = 8;
        config.elastic.deferred_mask = topo::kbit(2) | topo::kbit(3);
        Machine machine(config);
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
        for (int i = 0; i < kWriters; ++i) {
            process.spawn(
                [&, i](Guest& g) {
                    g.join(init);
                    const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                    for (int r = 0; r < kRounds; ++r) {
                        g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                        g.compute(60_us);
                    }
                },
                static_cast<topo::KernelId>(i % 2));
        }
        machine.run_until(100_us);
        machine.join_kernel(2);
        machine.run_until(200_us);
        machine.join_kernel(3);
        machine.run_until(400_us);
        machine.drain_kernel(1);
        machine.run();
        process.check_all_joined();
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();

        std::vector<std::uint32_t> slots(kWriters, 0);
        process.spawn(
            [&](Guest& g) {
                for (int i = 0; i < kWriters; ++i) {
                    slots[static_cast<std::size_t>(i)] =
                        g.read<std::uint32_t>(buf + static_cast<Vaddr>(i) * 8);
                }
            },
            0);
        machine.run();
        process.check_all_joined();
        for (int i = 0; i < kWriters; ++i) {
            EXPECT_EQ(slots[static_cast<std::size_t>(i)],
                      static_cast<std::uint32_t>(kRounds))
                << "seed " << seed << " slot " << i;
        }
    }
}

} // namespace
} // namespace rko::api
