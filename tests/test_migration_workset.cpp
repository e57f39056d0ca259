// Working-set migration: pre-copy page push + post-copy demand pull
// (DESIGN.md §15).
//
// Behavioural coverage: the per-task top-K tracker ranks by heat and ages
// by decay; a migration with workset push enabled reaches the exact same
// guest-visible state as the demand-only protocol (pre-copy is a pure
// latency optimization); dirty pages move OWNED (the destination's writes
// stay local, the source keeps no PTE) while shared pages and read-only
// VMAs move as replicas; pushes racing a destination or source kill fail
// cleanly without leaking directory busy bits, page data or frames; and
// sharded homes (home_shards=4) serve the pull round identically to the
// unsharded origin. The stale stride-detector regression (a revisit
// reactivating an old task record must not fire a bogus kPageFaultBatch)
// rides along because migration arrival owns both resets.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/smp/smp.hpp"
#include "rko/task/task.hpp"

namespace rko::api {
namespace {

using namespace rko::time_literals;
using mem::kPageSize;
using mem::Vaddr;

std::uint64_t counter_value(trace::MetricsRegistry& m, std::string_view name) {
    const trace::Counter* c = m.find_counter(name);
    return c == nullptr ? 0 : c->value;
}

std::uint64_t remote_faults(Machine& machine) {
    std::uint64_t n = 0;
    for (topo::KernelId k = 0; k < machine.config().nkernels; ++k) {
        n += machine.kernel(k).pages().remote_faults();
    }
    return n;
}

/// The kernel homing `va`'s directory entry, as the home map names it (the
/// origin k0 with one shard). Every process here is created on k0.
topo::KernelId home_of(Machine& machine, Pid pid, Vaddr va) {
    return machine.kernel(0).home_map().home_of(pid, 0, mem::vpn_of(va));
}

/// The directory entry for `va` at its home.
core::PageDirEntry dir_entry(Machine& machine, Pid pid, Vaddr va) {
    const std::uint64_t vpn = mem::vpn_of(va);
    auto& shard = machine.kernel(home_of(machine, pid, va)).site(pid).dir_shard(vpn);
    const auto it = shard.entries.find(vpn);
    EXPECT_NE(it, shard.entries.end()) << "no directory entry for va " << va;
    return it == shard.entries.end() ? core::PageDirEntry{} : it->second;
}

/// Pages of the `pages`-page buffer at `buf` a pull to `dest` ships: the
/// pull skips pages homed at the destination (their faults never cross the
/// fabric), so with one shard that is every page.
std::uint64_t pulled_pages(Machine& machine, Pid pid, Vaddr buf, int pages,
                           topo::KernelId dest) {
    std::uint64_t n = 0;
    for (int p = 0; p < pages; ++p) {
        n += home_of(machine, pid, buf + static_cast<Vaddr>(p) * kPageSize) != dest;
    }
    return n;
}

const mem::Pte* pte_at(Machine& machine, topo::KernelId k, Pid pid, Vaddr va) {
    if (!machine.kernel(k).has_site(pid)) return nullptr;
    const mem::Pte* pte = machine.kernel(k).site(pid).space().page_table().find(va);
    return pte != nullptr && pte->present ? pte : nullptr;
}

/// Every live kernel's allocated frames are exactly the frames its page
/// tables map: a frame revoked by an ownership push and never freed (or
/// freed twice) shows up here.
void expect_frames_balanced(Machine& machine, Pid pid, Nanos kill_at) {
    for (topo::KernelId k = 0; k < machine.config().nkernels; ++k) {
        if (machine.is_killed(k)) continue;
        kernel::Kernel& kern = machine.kernel(k);
        const std::size_t mapped =
            kern.has_site(pid) ? kern.site(pid).space().page_table().present_pages()
                               : 0;
        EXPECT_EQ(kern.frames().total_frames() - kern.frames().free_frames(), mapped)
            << "k" << k << " kill_at=" << kill_at;
    }
}

// --- Tracker unit behavior (no machine) -------------------------------------

TEST(WorksetTracker, TopKTrackingAndDecay) {
    task::Task t;
    // Fill every slot once.
    for (std::uint64_t vpn = 0; vpn < task::kMaxWorkset; ++vpn) {
        t.workset_touch(vpn);
    }
    ASSERT_EQ(t.workset_size, task::kMaxWorkset);
    // Re-touching an existing page bumps its heat, not the size.
    t.workset_touch(0);
    t.workset_touch(0);
    EXPECT_EQ(t.workset_size, task::kMaxWorkset);
    EXPECT_EQ(t.workset[0].heat, 3u);
    // A full tracker with every slot warm drops new touches: a page must
    // outlive a decay tick's cooling to displace an established entry.
    t.workset_touch(1000);
    for (std::uint32_t i = 0; i < t.workset_size; ++i) {
        EXPECT_NE(t.workset[i].vpn, 1000u);
    }
    // One decay halves everything: the heat-1 entries cool to zero and the
    // next new touch claims a cold slot.
    t.workset_decay();
    EXPECT_EQ(t.workset[0].heat, 1u);
    EXPECT_EQ(t.workset[1].heat, 0u);
    t.workset_touch(1000);
    bool found = false;
    for (std::uint32_t i = 0; i < t.workset_size; ++i) {
        found = found || (t.workset[i].vpn == 1000 && t.workset[i].heat == 1);
    }
    EXPECT_TRUE(found);
    // The hot entry survives repeated decay longer than the cold ones.
    t.workset_decay();
    EXPECT_EQ(t.workset[0].heat, 0u);
}

// --- Stale stride state across migration (regression) -----------------------

// A thread builds a partial sequential run (2 faults, below kPrefetchMinRun)
// on k1, migrates away and back — reactivating its OLD task record — then
// faults the next sequential page. Before the arrival-time reset, the stale
// last_fault_page/fault_run pair completed the run and fired a bogus
// kPageFaultBatch; with the reset the revisit starts a fresh run and no
// prefetch is ever issued.
TEST(WorksetMigration, StrideDetectorResetsOnRevisit) {
    MachineConfig config = smp::popcorn_config(8, 4);
    config.prefetch_window = 8;
    config.workset_push = 0;
    Machine machine(config);
    auto& process = machine.create_process(0);
    process.spawn(
        [](Guest& g) {
            const Vaddr buf = g.mmap(16 * kPageSize);
            g.read<std::uint64_t>(buf);                 // run = 1
            g.read<std::uint64_t>(buf + kPageSize);     // run = 2 (< min run 3)
            g.migrate(2);
            g.migrate(1); // revisit: old task record reactivated
            g.read<std::uint64_t>(buf + 2 * kPageSize); // fresh run, not 3
        },
        1);
    machine.run();
    process.check_all_joined();
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "pages.prefetch.issued"), 0u);
    EXPECT_EQ(counter_value(metrics, "pages.prefetch.hit"), 0u);
}

// --- Push vs demand: guest-visible state agreement ---------------------------

struct RetouchResult {
    std::vector<std::uint64_t> values;
    Nanos retouch = 0;
    std::uint64_t pushed = 0;
    std::uint64_t hit = 0;
    std::uint64_t wasted = 0;
};

RetouchResult run_retouch(int workset_push, int home_shards, int pages) {
    MachineConfig config = smp::popcorn_config(8, 4);
    config.workset_push = workset_push;
    config.home_shards = home_shards;
    RetouchResult r;
    r.values.resize(static_cast<std::size_t>(pages));
    Machine machine(config);
    auto& process = machine.create_process(0);
    process.spawn(
        [&](Guest& g) {
            const Vaddr buf =
                g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
            for (int p = 0; p < pages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       0x1000u + static_cast<std::uint64_t>(p));
            }
            g.flush_timing();
            g.migrate(1);
            const Nanos t0 = g.now();
            for (int p = 0; p < pages; ++p) {
                r.values[static_cast<std::size_t>(p)] = g.read<std::uint64_t>(
                    buf + static_cast<Vaddr>(p) * kPageSize);
            }
            g.flush_timing();
            r.retouch = g.now() - t0;
        },
        0);
    machine.run();
    process.check_all_joined();
    auto metrics = machine.collect_metrics();
    r.pushed = counter_value(metrics, "migration.workset.pushed");
    r.hit = counter_value(metrics, "migration.workset.hit");
    r.wasted = counter_value(metrics, "migration.workset.wasted");
    return r;
}

TEST(WorksetMigration, PushAndDemandAgreeOnGuestState) {
    const RetouchResult demand = run_retouch(/*workset_push=*/0,
                                             /*home_shards=*/1, /*pages=*/48);
    const RetouchResult push = run_retouch(/*workset_push=*/32,
                                           /*home_shards=*/1, /*pages=*/48);
    // Pre-copy is a pure latency optimization: every byte the guest can
    // observe is identical to the demand-only protocol.
    EXPECT_EQ(demand.values, push.values);
    for (int p = 0; p < 48; ++p) {
        EXPECT_EQ(demand.values[static_cast<std::size_t>(p)],
                  0x1000u + static_cast<std::uint64_t>(p));
    }
    // The demand run never speaks the workset protocol.
    EXPECT_EQ(demand.pushed, 0u);
    EXPECT_EQ(demand.hit, 0u);
    // The push run pre-copied the tracked top-K and every push landed
    // (nothing raced the installs in this single-thread workload).
    EXPECT_GE(push.pushed, task::kMaxWorkset / 2);
    EXPECT_EQ(push.hit, push.pushed);
    EXPECT_EQ(push.wasted, 0u);
    // And it is what the tentpole promises: cheaper re-touch.
    EXPECT_LT(push.retouch, demand.retouch);
}

// --- Sharded homes serve the pull round identically --------------------------

TEST(WorksetMigration, ShardedAndUnshardedAgree) {
    const RetouchResult unsharded = run_retouch(/*workset_push=*/32,
                                                /*home_shards=*/1, /*pages=*/48);
    const RetouchResult sharded = run_retouch(/*workset_push=*/32,
                                              /*home_shards=*/4, /*pages=*/48);
    EXPECT_EQ(unsharded.values, sharded.values);
    // Sharded pulls fan out per home; pages homed at the destination are
    // skipped entirely (their faults never cross the fabric), so fewer
    // pushes may happen — but the ones that do must all land.
    EXPECT_GE(sharded.pushed, 1u);
    EXPECT_EQ(sharded.hit, sharded.pushed);
    EXPECT_EQ(sharded.wasted, 0u);
}

// --- Ownership push: dirty pages move owned ---------------------------------

// A writer dirties pages on `source`, migrates to k2, and retouches them:
// read-verify, then rewrite. Each page was Exclusive at the source, so the
// pull moves it Exclusive: the rewrites hit local writable PTEs (zero
// remote faults), the directory names k2 the owner, and the source keeps
// no PTE. Source k0 is the home itself (batched local revoke); source k1
// is a remote owner (one scatter of want_data invalidates). Only the
// writes are counted: a read can still overtake its page's install in the
// destination's leaf pool and wait out the busy bit remotely.
TEST(WorksetMigration, OwnershipPushMakesRetouchWritesLocal) {
    constexpr int kPages = 16;
    for (const topo::KernelId source : {0, 1}) {
        Machine machine(smp::popcorn_config(8, 4));
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        std::uint64_t write_faults = ~0ull;
        process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                           0x3000u + static_cast<std::uint64_t>(p));
                }
                g.migrate(2);
                for (int p = 0; p < kPages; ++p) {
                    EXPECT_EQ(g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize),
                              0x3000u + static_cast<std::uint64_t>(p));
                }
                const std::uint64_t before = remote_faults(machine);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize, p);
                }
                write_faults = remote_faults(machine) - before;
            },
            source);
        machine.run();
        process.check_all_joined();
        EXPECT_EQ(write_faults, 0u) << "source=k" << source;
        for (int p = 0; p < kPages; ++p) {
            const Vaddr a = buf + static_cast<Vaddr>(p) * kPageSize;
            const core::PageDirEntry e = dir_entry(machine, process.pid(), a);
            EXPECT_EQ(e.state, core::PageDirEntry::State::kExclusive);
            EXPECT_EQ(e.owner, 2);
            EXPECT_EQ(pte_at(machine, source, process.pid(), a), nullptr)
                << "source=k" << source << " page " << p;
            const mem::Pte* dst = pte_at(machine, 2, process.pid(), a);
            ASSERT_NE(dst, nullptr);
            EXPECT_NE(dst->prot & mem::kProtWrite, 0u);
        }
        auto metrics = machine.collect_metrics();
        const std::uint64_t pulled = pulled_pages(machine, process.pid(), buf, kPages, 2);
        EXPECT_EQ(counter_value(metrics, "migration.workset.pushed"), pulled);
        EXPECT_EQ(counter_value(metrics, "migration.workset.hit"), pulled);
        expect_frames_balanced(machine, process.pid(), 0);
    }
}

// A 32-page pull from a remote owner costs that owner ONE TLB-generation
// bump — one batched capture under one shootdown — however many pages it
// gives up, and each page crosses the fabric once, owner -> requester: the
// home -> requester channel carries no 4 KiB message. Invalidations are
// still counted per page. With sharded homes each home of the buffer (other
// than the destination, whose pages are not pulled) costs the owner one
// bump: its own capture when the owner is the home, else one surrender.
TEST(WorksetMigration, RemoteOwnerSurrendersPullInOneShootdown) {
    constexpr int kPages = 32;
    constexpr topo::KernelId kOwner = 1;
    constexpr topo::KernelId kDest = 2;
    Machine machine(smp::popcorn_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    std::uint64_t bumps = 0;
    std::array<std::uint64_t, 4> to_dest{}; // bytes each kernel sent k2 during the pull
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       0x6000u + static_cast<std::uint64_t>(p));
            }
            const mem::AddressSpace& owner =
                machine.kernel(kOwner).site(process.pid()).space();
            const std::uint64_t gen0 = owner.tlb_generation();
            for (topo::KernelId k = 0; k < 4; ++k) {
                if (k != kDest) to_dest[k] = machine.fabric().channel(k, kDest).bytes_sent();
            }
            g.migrate(kDest); // returns once the pull round is answered
            bumps = owner.tlb_generation() - gen0;
            for (topo::KernelId k = 0; k < 4; ++k) {
                if (k != kDest) {
                    to_dest[k] = machine.fabric().channel(k, kDest).bytes_sent() - to_dest[k];
                }
            }
            for (int p = 0; p < kPages; ++p) {
                EXPECT_EQ(g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize),
                          0x6000u + static_cast<std::uint64_t>(p));
            }
        },
        kOwner);
    machine.run();
    process.check_all_joined();
    topo::KernelMask homes = 0;
    for (int p = 0; p < kPages; ++p) {
        const topo::KernelId home =
            home_of(machine, process.pid(), buf + static_cast<Vaddr>(p) * kPageSize);
        if (home != kDest) homes |= topo::kbit(home);
    }
    EXPECT_EQ(bumps, static_cast<std::uint64_t>(std::popcount(homes)));
    for (topo::KernelId k = 0; k < 4; ++k) {
        if ((homes & topo::kbit(k)) == 0 || k == kOwner) continue;
        EXPECT_LT(to_dest[k], kPageSize) << "home k" << k << " relayed page bytes";
    }
    const std::uint64_t pulled = pulled_pages(machine, process.pid(), buf, kPages, kDest);
    EXPECT_GE(to_dest[kOwner], pulled * kPageSize);
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "migration.workset.pushed"), pulled);
    EXPECT_EQ(counter_value(metrics, "migration.workset.hit"), pulled);
    EXPECT_EQ(counter_value(metrics, "pages.invalidations"), pulled);
    expect_frames_balanced(machine, process.pid(), 0);
}

// Pages a second kernel also reads are Shared when the writer migrates:
// they move as read-only replicas and every earlier holder keeps its copy.
TEST(WorksetMigration, SharedPagesStayReplicas) {
    constexpr int kPages = 8;
    Machine machine(smp::popcorn_config(8, 4));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    std::uint64_t sum = 0;
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       0x4000u + static_cast<std::uint64_t>(p));
            }
            auto& reader = g.spawn(
                [&](Guest& r) {
                    for (int p = 0; p < kPages; ++p) {
                        r.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
                    }
                },
                3);
            g.join(reader);
            g.migrate(2);
            for (int p = 0; p < kPages; ++p) {
                sum += g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
            }
        },
        1);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(sum, kPages * 0x4000u + kPages * (kPages - 1) / 2);
    auto metrics = machine.collect_metrics();
    EXPECT_GE(counter_value(metrics, "migration.workset.hit"),
              pulled_pages(machine, process.pid(), buf, kPages, 2));
    EXPECT_EQ(counter_value(metrics, "migration.workset.wasted"), 0u);
    for (int p = 0; p < kPages; ++p) {
        const Vaddr a = buf + static_cast<Vaddr>(p) * kPageSize;
        const core::PageDirEntry e = dir_entry(machine, process.pid(), a);
        EXPECT_EQ(e.state, core::PageDirEntry::State::kShared);
        EXPECT_TRUE(e.holds(1) && e.holds(2) && e.holds(3)) << "page " << p;
        for (const topo::KernelId k : {1, 2, 3}) {
            const mem::Pte* pte = pte_at(machine, k, process.pid(), a);
            ASSERT_NE(pte, nullptr) << "k" << k << " page " << p;
            EXPECT_EQ(pte->prot & mem::kProtWrite, 0u);
        }
    }
}

// An Exclusive page in a VMA without write permission (reachable in the
// no-read-replication ablation, where read faults take ownership) moves as
// a replica: the source is downgraded and keeps its copy. The destination
// does not retouch — in this ablation its own read faults would take the
// pages over.
TEST(WorksetMigration, ReadOnlyVmaPushedAsReplica) {
    constexpr int kPages = 4;
    MachineConfig config = smp::popcorn_config(8, 4);
    config.read_replication = false;
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize, mem::kProtRead);
            for (int p = 0; p < kPages; ++p) {
                g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
            }
            g.migrate(2);
        },
        1);
    machine.run();
    process.check_all_joined();
    auto metrics = machine.collect_metrics();
    EXPECT_EQ(counter_value(metrics, "migration.workset.hit"),
              pulled_pages(machine, process.pid(), buf, kPages, 2));
    for (int p = 0; p < kPages; ++p) {
        const Vaddr a = buf + static_cast<Vaddr>(p) * kPageSize;
        const core::PageDirEntry e = dir_entry(machine, process.pid(), a);
        EXPECT_NE(pte_at(machine, 1, process.pid(), a), nullptr) << "page " << p;
        if (home_of(machine, process.pid(), a) == 2) {
            // Not pulled: the reader's ownership stays where it was.
            EXPECT_EQ(e.state, core::PageDirEntry::State::kExclusive) << "page " << p;
            EXPECT_EQ(e.owner, 1) << "page " << p;
            EXPECT_EQ(pte_at(machine, 2, process.pid(), a), nullptr) << "page " << p;
            continue;
        }
        EXPECT_EQ(e.state, core::PageDirEntry::State::kShared);
        EXPECT_TRUE(e.holds(1) && e.holds(2)) << "page " << p;
        EXPECT_NE(pte_at(machine, 2, process.pid(), a), nullptr) << "page " << p;
    }
}

// --- Ownership pushes racing a kill -----------------------------------------

struct KillRun {
    std::vector<std::uint64_t> values;
    std::vector<bool> at_dest; ///< page mapped at k2 when the writer finished
    std::vector<bool> at_source; ///< page still mapped at the source after the kills
};

/// After a lease warm-up, a writer on `source` dirties kPages and migrates
/// to `dest`; the home k0 has the source surrender them in one
/// kPageSurrender, whose pushes leave the source from about t=316us. The
/// `kills` land in order;
/// afterwards a reader on the surviving origin re-faults every page. The balance period (which
/// also halves the tracker's heat each tick) is long enough that the whole
/// dirtying pass lands between two ticks, so every page ships.
struct Kill {
    topo::KernelId victim;
    Nanos at;
    /// A survivor whose failure detector fires at the kill itself; every
    /// other kernel learns of the death a lease later. -1: none.
    topo::KernelId seen_by = -1;
};

KillRun run_kill_during_pull(topo::KernelId source, topo::KernelId dest,
                             const std::vector<Kill>& kills) {
    const Nanos kill_at = kills.back().at;
    constexpr int kPages = 16;
    MachineConfig config = smp::popcorn_config(8, 4);
    config.frames_per_kernel = 4096;
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 100_us;
    config.balance.min_residency = 50_us;
    config.balance.migration_budget = 4;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    config.check = true; // audit directory invariants at quiesce
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    KillRun r;
    r.at_dest.assign(kPages, false);
    r.at_source.assign(kPages, false);
    process.spawn(
        [&](Guest& g) {
            g.compute(200_us); // let the lease/gossip machinery warm up
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       0x5000u + static_cast<std::uint64_t>(p));
            }
            g.migrate(dest);
            for (int p = 0; p < kPages; ++p) {
                r.at_dest[static_cast<std::size_t>(p)] =
                    pte_at(machine, dest, process.pid(),
                           buf + static_cast<Vaddr>(p) * kPageSize) != nullptr;
            }
            g.compute(500_us);
        },
        source);
    // Both doomed-or-not peers announce themselves: a kernel's balancer
    // gossips only while active, and leases ignore peers never heard from.
    process.spawn([](Guest& g) { g.compute(150_us); }, dest);
    process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
    for (const Kill& kill : kills) {
        machine.run_until(kill.at);
        machine.kill_kernel(kill.victim);
        if (kill.seen_by >= 0) machine.kernel(kill.seen_by).node().set_peer_dead(kill.victim);
    }
    machine.run();
    process.check_all_joined();
    for (const Kill& kill : kills) {
        EXPECT_TRUE(machine.is_killed(kill.victim)) << "kill_at=" << kill_at;
    }
    expect_frames_balanced(machine, process.pid(), kill_at);
    for (int p = 0; p < kPages; ++p) {
        r.at_source[static_cast<std::size_t>(p)] =
            pte_at(machine, source, process.pid(),
                   buf + static_cast<Vaddr>(p) * kPageSize) != nullptr;
    }

    r.values.assign(kPages, 0);
    process.spawn(
        [&](Guest& g) {
            for (int p = 0; p < kPages; ++p) {
                r.values[static_cast<std::size_t>(p)] =
                    g.read<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize);
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    expect_frames_balanced(machine, process.pid(), kill_at);
    return r;
}

// Killing the SOURCE mid-surrender: every page it pushed before dying
// reaches the destination intact; the rest died with it (its sole copy)
// and refault as zero — never as stale or foreign bytes. No busy bit,
// pending install or frame leaks on the survivors.
TEST(WorksetMigration, SourceKillDuringOwnershipPullLosesNoData) {
    for (const Nanos kill_at : {300_us, 310_us, 320_us, 330_us, 340_us, 350_us}) {
        const KillRun r = run_kill_during_pull(1, 2, {{1, kill_at}});
        for (std::size_t p = 0; p < r.values.size(); ++p) {
            const std::uint64_t want = 0x5000u + p;
            if (r.at_dest[p]) {
                EXPECT_EQ(r.values[p], want) << "kill_at=" << kill_at << " page " << p;
            } else {
                EXPECT_TRUE(r.values[p] == want || r.values[p] == 0)
                    << "kill_at=" << kill_at << " page " << p;
            }
        }
    }
}

// Killing the requester (k1) while the source (k2) surrenders its pages:
// the home k0 forwards the pull as one kPageSurrender, and k2 pushes the
// pages straight to k1, one every ~0.6 us from about t=316 us. k2's failure
// detector fires at the kill itself; the home's fires a lease later. Each
// page k2 shipped before that dies with the requester and refaults as zero.
// Every page it had not shipped stays k2's and reads back intact: its
// revoked PTE is restored, and the home, still seeing the requester alive,
// leaves k2 the owner, so the quiesce audit finds no source copy without a
// directory entry. No frame leaks on the survivors.
TEST(WorksetMigration, RequesterKillDuringSurrenderKeepsUnshippedPages) {
    std::size_t kept = 0;
    std::size_t lost = 0;
    std::size_t split = 0; // runs that shipped some pages and kept others
    for (Nanos kill_at = 314_us; kill_at <= 330_us; kill_at += 1_us) {
        const KillRun r = run_kill_during_pull(2, 1, {{1, kill_at, /*seen_by=*/2}});
        std::size_t run_kept = 0;
        std::size_t run_lost = 0;
        for (std::size_t p = 0; p < r.values.size(); ++p) {
            const std::uint64_t want = 0x5000u + p;
            if (r.at_source[p]) {
                ++run_kept;
                EXPECT_EQ(r.values[p], want) << "kill_at=" << kill_at << " page " << p;
            } else {
                EXPECT_TRUE(r.values[p] == want || r.values[p] == 0)
                    << "kill_at=" << kill_at << " page " << p;
                run_lost += r.values[p] == 0 ? 1 : 0;
            }
        }
        kept += run_kept;
        lost += run_lost;
        split += run_kept > 1 && run_lost > 0 ? 1 : 0;
    }
    // Not vacuous: the sweep lands before, inside and after the pushes.
    EXPECT_GT(kept, 0u);
    EXPECT_GT(lost, 0u);
    EXPECT_GT(split, 0u);
}

// --- Pushes racing a destination kill fail cleanly ---------------------------

// A writer dirties 8 pages at the origin right before migrating to k2, so
// the tracker still ranks them hot and the pull really ships some. The
// buffer is made read-only first: replica pushes leave the origin a Shared
// holder, whereas owned pages would die with the destination (DESIGN.md
// §15, Failures). k2 is killed at a sweep of virtual times spanning the
// migration, the pull round, and the in-flight pushes. Every timing must
// quiesce cleanly (leaked directory busy bits would hang the reader's
// faults forever) and the origin's copies must survive with their data
// intact.
TEST(WorksetMigration, PushToKilledDestinationFailsCleanly) {
    constexpr int kPages = 8;
    // The migration is delayed past lease warm-up: an idle kernel's balancer
    // parks at boot without ever gossiping, and a peer never heard from has
    // no lease to expire — so k2 runs a short task first to announce itself.
    // The writes end at ~216us and the mprotect at ~223us; the sweep then
    // brackets the checkpoint, the transfer, the pull (served at k0 from
    // ~241us) and the pushes. A kill mid-mprotect (218us) stalls its replica
    // broadcast until k2 is declared dead, so the migration is refused
    // before the checkpoint and the writer resumes on its own core.
    constexpr Nanos kPullServed = 241_us;
    for (const Nanos kill_at :
         {218_us, 224_us, 230_us, 238_us, 241_us, 244_us, 250_us, 300_us}) {
        MachineConfig config = smp::popcorn_config(8, 4);
        config.workset_push = 32;
        config.frames_per_kernel = 4096;
        config.balance.policy = balance::Policy::kIdleSteal;
        config.balance.period = 20_us;
        config.balance.min_residency = 50_us;
        config.balance.migration_budget = 4;
        config.elastic.enabled = true;
        config.elastic.lease_misses = 4;
        config.check = true; // audit directory invariants at quiesce
        Machine machine(config);
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                g.compute(200_us); // let the lease/gossip machinery warm up
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                           0x2000u + static_cast<std::uint64_t>(p));
                }
                g.mprotect(buf, kPages * kPageSize, mem::kProtRead);
                g.migrate(2);
                g.compute(500_us);
            },
            0);
        // The doomed destination announces itself: its balancer gossips only
        // while active, and the lease table ignores peers it never heard from.
        process.spawn([](Guest& g) { g.compute(150_us); }, 2);
        // Companion keeps the survivors' balance ticks (and the failure
        // detector) running well past the lease expiry.
        process.spawn([](Guest& g) { g.compute(2_ms); }, 0);
        machine.run_until(kill_at);
        machine.kill_kernel(2);
        machine.run();
        process.check_all_joined();
        EXPECT_TRUE(machine.is_killed(2)) << "kill_at=" << kill_at;
        if (kill_at >= kPullServed && config.home_shards == 1) {
            // Not vacuous: the home k0 served the pull before the axe fell.
            // (The window above is measured with k0 as the only home.)
            EXPECT_GT(machine.kernel(0).pages().workset_pushed(), 0u)
                << "kill_at=" << kill_at;
        }

        // The origin kernel survived with every byte (it stayed a Shared
        // holder): a reader re-faulting the whole buffer completing
        // at all proves no directory busy bit leaked from a dead-lettered
        // push, and the values prove no data was lost with the corpse.
        std::uint64_t sum = 0;
        process.spawn(
            [&](Guest& g) {
                for (int p = 0; p < kPages; ++p) {
                    sum += g.read<std::uint64_t>(buf +
                                                 static_cast<Vaddr>(p) * kPageSize);
                }
            },
            0);
        machine.run();
        process.check_all_joined();
        std::uint64_t want = 0;
        for (int p = 0; p < kPages; ++p) {
            want += 0x2000u + static_cast<std::uint64_t>(p);
        }
        EXPECT_EQ(sum, want) << "kill_at=" << kill_at;
    }
}

} // namespace
} // namespace rko::api
