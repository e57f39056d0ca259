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
#include <cstddef>
#include <cstdint>
#include <limits>
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
// prefetch is ever issued. The thread outlasts its post-migration boost
// before that read, so the read is an ordinary stride-detector decision.
TEST(WorksetMigration, StrideDetectorResetsOnRevisit) {
    Machine machine(smp::popcorn_config(8, 4));
    auto& process = machine.create_process(0);
    process.spawn(
        [](Guest& g) {
            const Vaddr buf = g.mmap(16 * kPageSize);
            g.read<std::uint64_t>(buf);                 // run = 1
            g.read<std::uint64_t>(buf + kPageSize);     // run = 2 (< min run 3)
            g.migrate(2);
            g.migrate(1); // revisit: old task record reactivated
            g.compute(core::PageOwner::kWorksetBoostNs + 1_us);
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
    std::uint64_t prefetched = 0;
};

/// How the written pages reach k1: the writer itself migrates there and
/// retouches them (working-set pull, then boosted batches), or a reader
/// spawned on k1 that never migrated demand-faults them in descending
/// order, which the +1-page stride detector never follows.
enum class Retouch { kMigrate, kDemand };

RetouchResult run_retouch(Retouch how, int home_shards, int pages) {
    MachineConfig config = smp::popcorn_config(8, 4);
    config.home_shards = home_shards;
    RetouchResult r;
    r.values.resize(static_cast<std::size_t>(pages));
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    const auto retouch = [&](Guest& g) {
        const Nanos t0 = g.now();
        for (int n = 0; n < pages; ++n) {
            const int p = how == Retouch::kMigrate ? n : pages - 1 - n;
            r.values[static_cast<std::size_t>(p)] = g.read<std::uint64_t>(
                buf + static_cast<Vaddr>(p) * kPageSize);
        }
        g.flush_timing();
        r.retouch = g.now() - t0;
    };
    auto& writer = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(static_cast<std::uint64_t>(pages) * kPageSize);
            for (int p = 0; p < pages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       0x1000u + static_cast<std::uint64_t>(p));
            }
            g.flush_timing();
            if (how == Retouch::kDemand) return;
            g.migrate(1);
            retouch(g);
        },
        0);
    if (how == Retouch::kDemand) {
        process.spawn(
            [&](Guest& g) {
                g.join(writer);
                g.flush_timing();
                retouch(g);
            },
            1);
    }
    machine.run();
    process.check_all_joined();
    auto metrics = machine.collect_metrics();
    r.pushed = counter_value(metrics, "migration.workset.pushed");
    r.hit = counter_value(metrics, "migration.workset.hit");
    r.wasted = counter_value(metrics, "migration.workset.wasted");
    r.prefetched = counter_value(metrics, "pages.prefetch.issued");
    return r;
}

TEST(WorksetMigration, PushAndDemandAgreeOnGuestState) {
    const RetouchResult demand = run_retouch(Retouch::kDemand,
                                             /*home_shards=*/1, /*pages=*/48);
    const RetouchResult push = run_retouch(Retouch::kMigrate,
                                           /*home_shards=*/1, /*pages=*/48);
    // Pre-copy is a pure latency optimization: every byte the guest can
    // observe is identical to plain demand faulting.
    EXPECT_EQ(demand.values, push.values);
    for (int p = 0; p < 48; ++p) {
        EXPECT_EQ(demand.values[static_cast<std::size_t>(p)],
                  0x1000u + static_cast<std::uint64_t>(p));
    }
    // The demand run never speaks the workset or fault-around protocol.
    EXPECT_EQ(demand.pushed, 0u);
    EXPECT_EQ(demand.hit, 0u);
    EXPECT_EQ(demand.prefetched, 0u);
    // The push run pre-copied the tracked top-K and every push landed
    // (nothing raced the installs in this single-thread workload).
    EXPECT_GE(push.pushed, task::kMaxWorkset / 2);
    EXPECT_EQ(push.hit, push.pushed);
    EXPECT_EQ(push.wasted, 0u);
    // And it pays: the re-touch is cheaper.
    EXPECT_LT(push.retouch, demand.retouch);
}

// --- Sharded homes serve the pull round identically --------------------------

TEST(WorksetMigration, ShardedAndUnshardedAgree) {
    const RetouchResult unsharded = run_retouch(Retouch::kMigrate,
                                                /*home_shards=*/1, /*pages=*/48);
    const RetouchResult sharded = run_retouch(Retouch::kMigrate,
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

// --- Wire-supplied counts --------------------------------------------------
//
// A leaf handler must read only the VPNs a message carries, whatever its
// `count` says: carried+1, more than the array holds, and UINT32_MAX. The
// tests build the full struct, then cut hdr.payload_size to two VPNs. The
// bytes past payload_size are unspecified; here the first uncarried slot
// still names a third page, so an over-read would move that page too.

constexpr std::array<std::uint32_t, 3> kOverCounts{
    3u, 600u, std::numeric_limits<std::uint32_t>::max()};

template <typename Req>
msg::MessagePtr two_vpn_message(msg::MsgType type, const Req& req) {
    auto m = msg::make_message(type, msg::MsgKind::kRequest, req);
    m->hdr.payload_size =
        static_cast<std::uint32_t>(offsetof(Req, vpn) + 2 * sizeof(std::uint64_t));
    return m;
}

TEST(WorksetMigration, SurrenderClipsWireSuppliedCount) {
    constexpr int kPages = 4;
    constexpr topo::KernelId kOwner = 1;
    for (const std::uint32_t count : kOverCounts) {
        Machine machine(smp::popcorn_config(6, 3));
        auto& process = machine.create_process(0);
        const Pid pid = process.pid();
        Vaddr buf = 0;
        bool written = false, injected = false;
        std::uint32_t shipped = 0;
        std::array<bool, kPages> kept{};
        process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize, 1);
                }
                written = true;
                while (!injected) g.compute(1_us);
                // The out-of-band surrender left the directory naming k1 as
                // the owner of pages it shipped away; the munmap erases
                // those entries before the quiesce audit.
                g.munmap(buf, kPages * kPageSize);
            },
            kOwner);
        sim::Actor injector(machine.engine(), "injector", [&](sim::Actor& self) {
            while (!written) self.sleep_for(1_us);
            core::PageSurrenderReq req{};
            req.pid = pid;
            req.requester = 2; // no site there: the pushes are dropped
            req.count = count;
            req.mode.fill(core::SurrenderMode::kOwnership);
            req.vpn[0] = mem::vpn_of(buf + kPageSize);
            req.vpn[1] = mem::vpn_of(buf + 2 * kPageSize);
            req.vpn[2] = mem::vpn_of(buf); // not carried
            const auto reply = machine.kernel(0).node().rpc(
                kOwner, two_vpn_message(msg::MsgType::kPageSurrender, req));
            shipped = reply->payload_prefix_as<core::PageSurrenderResp>().shipped;
            for (int p = 0; p < kPages; ++p) {
                kept[static_cast<std::size_t>(p)] =
                    pte_at(machine, kOwner, pid, buf + static_cast<Vaddr>(p) * kPageSize) !=
                    nullptr;
            }
            injected = true;
        });
        injector.start();
        machine.run();
        process.check_all_joined();
        EXPECT_EQ(shipped, 0b11u) << "count " << count;
        for (int p = 0; p < kPages; ++p) {
            EXPECT_EQ(kept[static_cast<std::size_t>(p)], p != 1 && p != 2)
                << "count " << count << ", page " << p;
        }
    }
}

TEST(WorksetMigration, PullClipsWireSuppliedCount) {
    constexpr int kPages = 32;
    constexpr topo::KernelId kOwner = 1;
    constexpr topo::KernelId kDest = 2;
    for (const std::uint32_t count : kOverCounts) {
        Machine machine(smp::popcorn_config(8, 4));
        auto& process = machine.create_process(0);
        const Pid pid = process.pid();
        Vaddr buf = 0;
        bool written = false, dest_ready = false, injected = false;
        std::uint32_t granted = 0;
        // Two carried pages and the uncarried one, all homed at one kernel
        // other than the destination (with one shard: k0).
        std::vector<Vaddr> pick;
        process.spawn(
            [&](Guest& g) {
                buf = g.mmap(kPages * kPageSize);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize, 1);
                }
                written = true;
                while (!injected) g.compute(1_us);
            },
            kOwner);
        // The destination needs the VMA to install the pushes into: one
        // read of the last page (never picked) fetches it.
        process.spawn(
            [&](Guest& g) {
                while (!written) g.compute(1_us);
                (void)g.read<std::uint64_t>(buf + (kPages - 1) * kPageSize);
                dest_ready = true;
                while (!injected) g.compute(1_us);
            },
            kDest);
        sim::Actor injector(machine.engine(), "injector", [&](sim::Actor& self) {
            while (!dest_ready) self.sleep_for(1_us);
            topo::KernelId home = -1;
            for (topo::KernelId h = 0; h < 4 && home < 0; ++h) {
                if (h == kDest) continue;
                pick.clear();
                for (int p = 0; p < kPages - 1; ++p) {
                    const Vaddr va = buf + static_cast<Vaddr>(p) * kPageSize;
                    if (home_of(machine, pid, va) == h) pick.push_back(va);
                }
                if (pick.size() >= 3) home = h;
            }
            if (home >= 0) {
                core::WorksetPullReq req{};
                req.pid = pid;
                req.requester = kDest;
                req.count = count;
                for (std::size_t i = 0; i < 3; ++i) req.vpn[i] = mem::vpn_of(pick[i]);
                const auto reply = machine.kernel(kDest).node().rpc(
                    home, two_vpn_message(msg::MsgType::kWorksetPull, req));
                granted = reply->payload_as<core::WorksetPullResp>().granted;
            }
            injected = true;
        });
        injector.start();
        machine.run();
        process.check_all_joined();
        ASSERT_GE(pick.size(), 3u) << "no home holds three of the pages";
        EXPECT_EQ(granted, 2u) << "count " << count;
        for (std::size_t i = 0; i < 3; ++i) {
            const bool carried = i < 2;
            EXPECT_EQ(pte_at(machine, kDest, pid, pick[i]) != nullptr, carried)
                << "count " << count << ", pick " << i;
            EXPECT_EQ(pte_at(machine, kOwner, pid, pick[i]) != nullptr, !carried)
                << "count " << count << ", pick " << i;
            EXPECT_EQ(dir_entry(machine, pid, pick[i]).owner, carried ? kDest : kOwner)
                << "count " << count << ", pick " << i;
        }
        expect_frames_balanced(machine, pid, 0);
    }
}

} // namespace
} // namespace rko::api
