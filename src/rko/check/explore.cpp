#include "rko/check/explore.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>

#include "rko/api/machine.hpp"
#include "rko/api/process.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/process.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/mem/pagetable.hpp"
#include "rko/mem/phys.hpp"

namespace rko::check {

namespace {

using api::Guest;
using api::Machine;
using api::MachineConfig;
using api::Thread;
using mem::kPageSize;
using mem::Vaddr;
using namespace rko::time_literals;

// ---------------------------------------------------------------------------
// Hashing. FNV-1a/64 over the guest-visible end state: one copy of every
// directory-backed page's bytes (replicas are byte-identical or the pages
// checker already failed) plus each thread's exit record.
// ---------------------------------------------------------------------------

struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

std::uint64_t content_hash(Machine& m) {
    Fnv h;
    // Pages, in (pid, vpn) order regardless of which kernel holds them.
    std::map<std::pair<Pid, std::uint64_t>, const std::byte*> pages;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            // Directory entries live at each vpn's home kernel (the origin
            // when home_shards == 1): walk every site's shards.
            for (auto& shard : site.dir_shards()) {
                for (const auto& [vpn, entry] : shard.entries) {
                    if (entry.busy) continue; // audited separately
                    for (topo::KernelMask mask = entry.holder_mask(); mask != 0;
                         mask &= mask - 1) {
                        const auto holder =
                            static_cast<topo::KernelId>(std::countr_zero(mask));
                        if (!m.kernel(holder).has_site(site.pid())) continue;
                        const Vaddr page = static_cast<Vaddr>(vpn)
                                           << mem::kPageShift;
                        const mem::Pte* pte = m.kernel(holder)
                                                  .site(site.pid())
                                                  .space()
                                                  .page_table()
                                                  .find(page);
                        if (pte == nullptr || !pte->present) continue;
                        pages[{site.pid(), vpn}] = m.phys().frame_ptr(pte->paddr);
                        break; // lowest live holder is the canonical copy
                    }
                }
            }
        });
    }
    for (const auto& [key, frame] : pages) {
        h.u64(static_cast<std::uint64_t>(key.first));
        h.u64(key.second);
        h.bytes(frame, kPageSize);
    }
    // Thread outcomes, in creation order (tids are allocated in order).
    for (const auto& process : m.processes()) {
        for (const auto& thread : process->threads()) {
            h.u64(static_cast<std::uint64_t>(thread->tid()));
            h.u64(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(thread->exit_status())));
            h.u64(thread->segfaulted() ? 1 : 0);
        }
    }
    return h.h;
}

MachineConfig base_config(const ExploreConfig& cfg) {
    MachineConfig mc;
    mc.ncores = 8;
    mc.nkernels = 4;
    // Scenarios touch a handful of pages; a small guest RAM keeps a
    // 200-seed sweep (x2 replays, x6 scenarios) in seconds, not minutes.
    mc.frames_per_kernel = 1024;
    mc.seed = cfg.seed;
    mc.shuffle_ties = cfg.shuffle_ties;
    mc.fabric.delivery_jitter = cfg.delivery_jitter;
    mc.fabric.jitter_seed = cfg.seed;
    // Violations are data here, not aborts: the sweep collects the audit
    // via run_all and decides, so the fault-injection scenario can report
    // its expected findings instead of dying at teardown.
    mc.check = false;
    return mc;
}

/// Drains nothing — call after machine.run(). Audits and hashes.
ScenarioResult finish(Machine& m) {
    ScenarioResult res;
    res.vtime = m.now();
    res.messages = m.total_messages();
    res.report = run_all(m);
    res.content_hash = content_hash(m);
    Fnv h;
    h.u64(res.content_hash);
    h.u64(static_cast<std::uint64_t>(res.vtime));
    h.u64(res.messages);
    h.u64(m.total_message_bytes());
    res.replay_hash = h.h;
    return res;
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// Threads hop kernels every round while hammering one shared page, so
/// migration (group updates, shadow records) races page-ownership transfers
/// and the barrier's futex traffic. Final state is schedule-independent.
ScenarioResult run_migration_storm(const ExploreConfig& cfg) {
    constexpr int kThreads = 4;
    constexpr int kRounds = 5;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < kThreads; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 4;
                const Vaddr barrier = buf + 512;
                for (int r = 0; r < kRounds; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.migrate(static_cast<topo::KernelId>((i + r + 1) % 4));
                    g.barrier_wait(barrier, kThreads);
                }
            },
            static_cast<topo::KernelId>(i % 4));
    }
    machine.run();
    return finish(machine);
}

/// The unmapper destroys and recreates a region while remote writers keep
/// faulting it in: in-flight ownership transactions race the munmap
/// broadcast and vma_epoch bump. Writers may legally segfault (their VMA
/// vanished), so final content is schedule-dependent; only the invariants
/// and per-seed reproducibility are asserted.
ScenarioResult run_fault_munmap_race(const ExploreConfig& cfg) {
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(2 * kPageSize);
            for (int r = 0; r < 4; ++r) {
                g.write<std::uint64_t>(buf, static_cast<std::uint64_t>(r));
                g.munmap(buf, 2 * kPageSize);
                g.compute(500_ns);
                g.mmap(2 * kPageSize); // usually lands back on the same gap
            }
        },
        0);
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                while (buf == 0) g.yield();
                for (int i = 0; i < 6; ++i) {
                    g.write<std::uint32_t>(buf + kPageSize + 64 + static_cast<Vaddr>(w) * 8,
                                           static_cast<std::uint32_t>(i));
                    g.compute(300_ns);
                }
            },
            static_cast<topo::KernelId>(1 + w));
    }
    machine.run();
    return finish(machine);
}

/// Cross-kernel futex ping-pong plus a third thread doing short timed waits
/// on the same word: wake-side grants race timeout-side cancels, and the
/// word itself migrates between kernels under the waiters.
ScenarioResult run_futex_ping(const ExploreConfig& cfg) {
    constexpr std::uint32_t kRounds = 8;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPageSize);
            const Vaddr wa = buf;
            const Vaddr wb = buf + 64;
            for (std::uint32_t i = 1; i <= kRounds; ++i) {
                g.write<std::uint32_t>(wa, i);
                g.futex_wake(wa, 4);
                std::uint32_t v;
                while ((v = g.read<std::uint32_t>(wb)) != i) g.futex_wait(wb, v);
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            while (buf == 0) g.yield();
            const Vaddr wa = buf;
            const Vaddr wb = buf + 64;
            for (std::uint32_t i = 1; i <= kRounds; ++i) {
                std::uint32_t v;
                while ((v = g.read<std::uint32_t>(wa)) < i) g.futex_wait(wa, v);
                g.write<std::uint32_t>(wb, i);
                g.futex_wake(wb, 4);
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            while (buf == 0) g.yield();
            for (std::uint32_t i = 0; i < kRounds; ++i) {
                // Value usually stale (EAGAIN) or the wait times out mid-
                // round: every return is legal, the queue must stay sane.
                (void)g.futex_wait_for(buf, i % 3, 3_us);
            }
        },
        2);
    machine.run();
    return finish(machine);
}

/// One thread cycles the lower half of a region read-only and back
/// (downgrade_range demotes write bits machine-wide) while remote threads
/// read those pages and write the upper half — demotion races fault-in
/// upgrades on the same directory shards.
ScenarioResult run_mprotect_demote(const ExploreConfig& cfg) {
    constexpr int kCycles = 4;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(4 * kPageSize);
            g.write<std::uint64_t>(buf, 0xa0);
            g.write<std::uint64_t>(buf + kPageSize, 0xa1);
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < kCycles; ++c) {
                g.mprotect(buf, 2 * kPageSize, mem::kProtRead);
                g.compute(1_us);
                g.mprotect(buf, 2 * kPageSize, mem::kProtRead | mem::kProtWrite);
                g.compute(500_ns);
            }
            g.write<std::uint64_t>(buf, 0xb0);
            g.write<std::uint64_t>(buf + kPageSize, 0xb1);
        },
        0);
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                const Vaddr mine = buf + (2 + static_cast<Vaddr>(w)) * kPageSize;
                std::uint64_t sum = 0;
                for (int i = 0; i < 8; ++i) {
                    sum += g.read<std::uint64_t>(buf);
                    sum += g.read<std::uint64_t>(buf + kPageSize);
                    g.write<std::uint64_t>(mine + 8, static_cast<std::uint64_t>(i));
                    g.compute(400_ns);
                }
                (void)sum; // reads only pull Shared copies
                g.write<std::uint64_t>(mine + 16, 0xc0 + static_cast<std::uint64_t>(w));
            },
            static_cast<topo::KernelId>(1 + w));
    }
    machine.run();
    return finish(machine);
}

/// Fault-injection demo: drop one victim invalidation during a write
/// upgrade, leaving a stale read-only PTE at a remote kernel. The audit
/// must catch it (pages.pte_not_in_holders) — a clean report fails the
/// sweep. Proves the checker detects real ownership bugs, with a seed to
/// replay.
ScenarioResult run_inject_lost_invalidate(const ExploreConfig& cfg) {
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(2 * kPageSize);
            g.write<std::uint32_t>(buf, 0x41); // page Exclusive at k0
        },
        0);
    auto& reader = process.spawn(
        [&](Guest& g) {
            g.join(init);
            (void)g.read<std::uint32_t>(buf); // page now Shared {k0, k1}
            g.rmw_u32(buf + kPageSize, [](std::uint32_t) { return 1u; });
            g.futex_wake(buf + kPageSize, 4);
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(reader);
            std::uint32_t v;
            while ((v = g.read<std::uint32_t>(buf + kPageSize)) != 1) {
                g.futex_wait(buf + kPageSize, v);
            }
            // The upgrade's invalidate to k1 is dropped: its PTE goes stale.
            for (int ik = 0; ik < machine.nkernels(); ++ik) {
                machine.kernel(ik).pages().set_inject_lost_invalidate(true);
            }
            g.write<std::uint32_t>(buf, 0x43);
            for (int ik = 0; ik < machine.nkernels(); ++ik) {
                machine.kernel(ik).pages().set_inject_lost_invalidate(false);
            }
        },
        0);
    machine.run();
    return finish(machine);
}

/// Six threads pile onto kernel 0 under an aggressive affinity balancer
/// (20 us ticks, minimal hysteresis): balancer steals race explicit
/// migrations, hint-driven self-migrations, shared-page ownership
/// transfers, and thread exits. Every increment must still land and each
/// task end up owned by exactly one scheduler (the balance checker's
/// domain). Final memory is schedule-independent.
ScenarioResult run_balancer_storm(const ExploreConfig& cfg) {
    constexpr int kThreads = 6;
    constexpr int kRounds = 4;
    MachineConfig mc = base_config(cfg);
    mc.balance.policy = balance::Policy::kAffinity;
    mc.balance.period = 20_us;
    mc.balance.min_residency = 30_us;
    mc.balance.migration_budget = 8;
    mc.balance.affinity_min_faults = 2;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < kThreads; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                for (int r = 0; r < kRounds; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    g.compute(50_us);
                    if (i % 3 == 0) {
                        g.migrate(static_cast<topo::KernelId>((i + r) % 4));
                    }
                    g.yield();
                }
            },
            0);
    }
    machine.run();
    return finish(machine);
}

/// Every round three remote readers replicate an 8-page region and a
/// writer at the origin then storms through it — each write upgrade fans
/// its invalidations out to every sharer in one scatter batch. A fourth
/// thread munmaps and remaps the region's upper half mid-storm so ranged
/// revocation (kPageInvalidateRange) races the per-page fan-out on the
/// same directory shards. Readers may legally segfault once the upper
/// half vanishes, so final content is schedule-dependent; the audits and
/// per-seed reproducibility are the assertions.
ScenarioResult run_invalidate_storm(const ExploreConfig& cfg) {
    constexpr int kPages = 8;
    constexpr int kRounds = 3;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint64_t>(p));
            }
        },
        0);
    for (int r = 0; r < 3; ++r) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int round = 0; round < kRounds; ++round) {
                    for (int p = 0; p < kPages; ++p) {
                        (void)g.read<std::uint64_t>(
                            buf + static_cast<Vaddr>(p) * kPageSize);
                    }
                    g.compute(400_ns);
                }
            },
            static_cast<topo::KernelId>(1 + r));
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int round = 0; round < kRounds; ++round) {
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint64_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize,
                        static_cast<std::uint64_t>(round * kPages + p));
                }
                g.compute(600_ns);
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < kRounds; ++c) {
                g.compute(2_us);
                g.munmap(buf + (kPages / 2) * kPageSize,
                         (kPages / 2) * kPageSize);
                g.compute(1_us);
                g.mmap((kPages / 2) * kPageSize); // often reuses the gap
            }
        },
        0);
    machine.run();
    return finish(machine);
}

/// A streaming reader walks a 24-page region sequentially with
/// prefetch_window=8, so its read faults upgrade into batched
/// transactions whose kPagePush deliveries race (a) a writer storming the
/// middle of the region — write upgrades must invalidate pushed copies
/// that are still in flight or freshly installed — and (b) an unmapper
/// cycling the tail, so pushes can arrive for a VMA that just vanished
/// (the push must be dropped and its busy bit still released). The reader
/// may legally segfault; audits + reproducibility only.
ScenarioResult run_prefetch_race(const ExploreConfig& cfg) {
    constexpr int kPages = 24;
    MachineConfig mc = base_config(cfg);
    mc.prefetch_window = 8;
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) {
            buf = g.mmap(kPages * kPageSize);
            for (int p = 0; p < kPages; ++p) {
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(p) * kPageSize,
                                       static_cast<std::uint64_t>(0x100 + p));
            }
        },
        0);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int pass = 0; pass < 2; ++pass) {
                for (int p = 0; p < kPages; ++p) {
                    (void)g.read<std::uint64_t>(
                        buf + static_cast<Vaddr>(p) * kPageSize);
                    g.compute(200_ns);
                }
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 12; ++i) {
                g.write<std::uint64_t>(
                    buf + static_cast<Vaddr>(8 + i % 8) * kPageSize,
                    static_cast<std::uint64_t>(0x200 + i));
                g.compute(500_ns);
            }
        },
        2);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < 3; ++c) {
                g.compute(3_us);
                g.munmap(buf + (kPages - 6) * kPageSize, 6 * kPageSize);
                g.compute(1_us);
                g.mmap(6 * kPageSize);
            }
        },
        0);
    machine.run();
    return finish(machine);
}

// ---------------------------------------------------------------------------
// Elastic-membership storms (§11): kernels fail-stop, hot-join, and drain
// mid-run while the load balancer is moving the very threads affected.
// ---------------------------------------------------------------------------

MachineConfig elastic_storm_config(const ExploreConfig& cfg) {
    MachineConfig mc = base_config(cfg);
    mc.balance.policy = balance::Policy::kIdleSteal;
    mc.balance.period = 20_us;
    mc.balance.min_residency = 50_us;
    mc.balance.migration_budget = 8;
    mc.elastic.enabled = true;
    mc.elastic.lease_misses = 4;
    return mc;
}

/// Two kernels fail-stop in sequence under a mixed compute/futex/shared-
/// page load. k0 and k1 each run two saturating 4 ms "anchor" computes:
/// their cores are never idle, so idle-steal cannot pull the doomed
/// threads to safety, and the failure detector keeps ticking long past
/// both deaths. The victims on k2/k3 hammer one shared page (homed at the
/// immortal origin) and take short timed futex waits, so each kill lands
/// on running, queued, blocked, and rpc-parked fibers alike — and steals
/// between k2 and k3 during the wait windows keep threads in flight when
/// the axe falls. k3 dies at 300 us and k2 at 700 us, so the second reap
/// runs against a membership that already lost a kernel. Which victim
/// dies where is schedule-dependent, so the assertions are the audits
/// (including the elastic family) and per-seed replay reproducibility.
ScenarioResult run_kill_storm(const ExploreConfig& cfg) {
    Machine machine(elastic_storm_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (topo::KernelId k = 0; k < 2; ++k) {
        for (int c = 0; c < 2; ++c) {
            process.spawn([](Guest& g) { g.compute(4_ms); }, k);
        }
    }
    for (int i = 0; i < 6; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                for (int r = 0; r < 40; ++r) {
                    g.rmw_u32(slot, [](std::uint32_t v) { return v + 1; });
                    // Never signalled: a bounded blocking window per round.
                    g.futex_wait_for(buf + 512, 0, 3_us);
                    g.compute(30_us);
                }
            },
            static_cast<topo::KernelId>(2 + i % 2));
    }
    machine.run_until(300_us);
    machine.kill_kernel(3);
    machine.run_until(700_us);
    machine.kill_kernel(2);
    machine.run();
    return finish(machine);
}

/// Capacity churn without failures: half the machine boots parted (k2 and
/// k3 deferred) while a 10-thread burst lands on k0/k1. The missing
/// kernels hot-join mid-run — k2 at 100 us, k3 at 200 us — so the joins
/// race in-flight steals, gossip, and each other; then k1 drains at
/// 400 us, pushing its share of threads and page copies onto the freshly
/// joined capacity. Every thread finishes cleanly wherever it lands and
/// every slot ends at exactly its increment count, so the final content
/// is schedule-independent and hashed across seeds.
ScenarioResult run_join_storm(const ExploreConfig& cfg) {
    MachineConfig mc = elastic_storm_config(cfg);
    mc.elastic.deferred_mask = (1u << 2) | (1u << 3);
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    for (int i = 0; i < 10; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                const Vaddr slot = buf + static_cast<Vaddr>(i) * 8;
                for (int r = 0; r < 10; ++r) {
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
    return finish(machine);
}

/// Hierarchical-futex torture (DESIGN.md §13): six contenders across three
/// kernels hammer one mutex word, so every kernel grows a local convoy,
/// the origin's wakes fan out as kFutexGrantBatch, and wake(1) handoffs
/// rotate the lock through each convoy. A third of the contenders also
/// take short stale-value timed waits on the hot word, racing grant
/// deliveries against local timeout cancels. Kernel 3 — anchored busy so
/// idle-steal never parks a lock holder there — hosts timed waiters on a
/// never-signalled word and then fail-stops, so the origin must reap its
/// aggregate entries; later kernel 2 drains mid-contention, evacuating
/// parked convoy waiters through the local cancel path. Kill victims make
/// final content schedule-dependent; audits + replay are the assertions.
ScenarioResult run_futex_convoy(const ExploreConfig& cfg) {
    constexpr int kContenders = 6;
    Machine machine(elastic_storm_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap(kPageSize); }, 0);
    // Saturate k3's cores so the balancer never steals a contender (and
    // possibly the lock holder) onto the kernel about to die.
    for (int c = 0; c < 2; ++c) {
        process.spawn([](Guest& g) { g.compute(4_ms); }, 3);
    }
    // Doomed waiters: bounded timed waits on a never-signalled word, so the
    // kill lands on locally-parked convoy members whose origin-side
    // aggregates must be reaped.
    for (int v = 0; v < 2; ++v) {
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                for (int r = 0; r < 30; ++r) {
                    g.futex_wait_for(buf + 512, 0, 4_us);
                    g.compute(10_us);
                }
            },
            3);
    }
    for (int i = 0; i < kContenders; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 25; ++r) {
                    g.mutex_lock(buf);
                    g.rmw_u32(buf + 64, [](std::uint32_t v) { return v + 1; });
                    g.compute(300_ns);
                    g.mutex_unlock(buf);
                    if (i % 3 == 0) {
                        // Stale-value timed waits on the hot word race
                        // kFutexGrantBatch against local timeout cancels.
                        (void)g.futex_wait_for(buf, 2, 2_us);
                    }
                    g.compute(2_us);
                }
            },
            static_cast<topo::KernelId>(i % 3));
    }
    machine.run_until(150_us);
    machine.kill_kernel(3);
    machine.run_until(400_us);
    machine.drain_kernel(2);
    machine.run();
    return finish(machine);
}

/// Sharded-home torture (DESIGN.md §14): 8 directory shards rendezvous-
/// hashed over the 4 kernels, so roughly 3/4 of all fault transactions run
/// at a non-origin home. Writers on every kernel hammer a 16-page region
/// (distinct VPNs land on distinct homes), an mmap/munmap cycler keeps the
/// replicated VMA caches churning through epoch invalidations, and a
/// mid-run mprotect exercises the home-fanout ranged sweeps. Kernel 3 —
/// kept from exporting its threads by two saturating anchors — fail-stops
/// at 250 us, so every shard it owned fails over: survivors shrink the
/// map, flag inherited shards rebuilding, and census-rebuild the entries
/// while stalled faults retry. Kernel 2 then *drains* at 600 us, taking
/// the voluntary-part path through the same failover machinery. Which
/// writes the dead kernel lost is schedule-dependent, so the assertions
/// are the audits (all nine families, home included) plus replay
/// reproducibility.
ScenarioResult run_home_storm(const ExploreConfig& cfg) {
    constexpr int kPages = 16;
    MachineConfig mc = elastic_storm_config(cfg);
    mc.home_shards = 8; // force sharding on regardless of RKO_HOME_SHARDS
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Anchors: k3's cores stay busy so idle-steal cannot pull its doomed
    // writers to safety before the kill.
    for (int c = 0; c < 2; ++c) {
        process.spawn([](Guest& g) { g.compute(4_ms); }, 3);
    }
    for (int i = 0; i < 8; ++i) {
        process.spawn(
            [&, i](Guest& g) {
                g.join(init);
                for (int r = 0; r < 30; ++r) {
                    // Stride the page index so consecutive faults from one
                    // thread resolve at different homes.
                    const int p = (i + 5 * r) % kPages;
                    const Vaddr page = buf + static_cast<Vaddr>(p) * kPageSize;
                    g.rmw_u32(page + static_cast<Vaddr>(i) * 8,
                              [](std::uint32_t v) { return v + 1; });
                    (void)g.read<std::uint64_t>(
                        buf + static_cast<Vaddr>((p + 7) % kPages) * kPageSize);
                    g.compute(15_us);
                }
            },
            static_cast<topo::KernelId>(i % 4));
    }
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int c = 0; c < 4; ++c) {
                g.compute(80_us);
                // Epoch-bump churn against the VMA replicas: the tail pages
                // vanish (fan-out revoke at every home), then come back.
                g.munmap(buf + (kPages - 4) * kPageSize, 4 * kPageSize);
                g.compute(20_us);
                g.mmap(4 * kPageSize);
                g.mprotect(buf, 4 * kPageSize, mem::kProtRead);
                g.compute(20_us);
                g.mprotect(buf, 4 * kPageSize,
                           mem::kProtRead | mem::kProtWrite);
            }
        },
        0);
    machine.run_until(250_us);
    machine.kill_kernel(3);
    machine.run_until(600_us);
    machine.drain_kernel(2);
    machine.run();
    return finish(machine);
}

/// Working-set migration under write sharing (DESIGN.md §15): two resident
/// writers on k0 and k1 keep a small region's ownership ping-ponging while
/// a third writer re-dirties every page and migrates between k2 and k3
/// each round with pre-copy armed. Every arrival's pull round races the
/// sharers' write upgrades: the home-side try-claims skip busy entries, a
/// pushed Shared copy can be invalidated while the install is still in
/// flight, and the post-copy boost widens fault batches over pages the
/// sharers are concurrently stealing back. All three write disjoint words,
/// so the final content is schedule-independent and hashed across seeds.
ScenarioResult run_migrate_under_write_sharing(const ExploreConfig& cfg) {
    constexpr int kPages = 8;
    constexpr int kRounds = 6;
    MachineConfig mc = base_config(cfg);
    mc.workset_push = 8; // a smaller pre-copy budget than the default
    Machine machine(mc);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, 0);
    // Resident sharers: each sweeps the region from its own kernel, writing
    // its own word of every page, so pages stay write-shared the whole run.
    for (int w = 0; w < 2; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                for (int r = 0; r < 3 * kRounds; ++r) {
                    const Vaddr page =
                        buf + static_cast<Vaddr>((w + r) % kPages) * kPageSize;
                    g.rmw_u32(page + static_cast<Vaddr>(w) * 8,
                              [](std::uint32_t v) { return v + 1; });
                    g.compute(2_us);
                }
            },
            static_cast<topo::KernelId>(w));
    }
    // The migrating writer: re-dirties the whole region (keeping all eight
    // pages hot in its tracker), then hops kernels; the checkpoint ships
    // the hot set and the arrival pull round races the sharers' traffic.
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int r = 0; r < kRounds; ++r) {
                for (int p = 0; p < kPages; ++p) {
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize + 128,
                              [](std::uint32_t v) { return v + 1; });
                }
                g.migrate(static_cast<topo::KernelId>(2 + r % 2));
            }
        },
        2);
    machine.run();
    return finish(machine);
}

/// Ownership pushes under fire: the migrant dirties a region on k1 and hops
/// k1 -> k2 -> k1 ..., so every arrival pulls its pages OWNED — the home
/// revokes the source's PTEs with data in one scatter. A sibling left on
/// k1 keeps writing its own word of the region's first half (its write
/// faults queue behind the claimed busy bits and take ownership back
/// between pulls), and an unmapper drops the second half just as the first
/// migration starts, so the munmap's revoke races that pull. Final content
/// of the surviving half is schedule-independent.
ScenarioResult run_migrate_ownership_race(const ExploreConfig& cfg) {
    constexpr int kPages = 8;
    constexpr int kHalf = kPages / 2;
    constexpr int kRounds = 4;
    Machine machine(base_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    // kPages data pages, then one control page the munmap leaves alone.
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap((kPages + 1) * kPageSize); }, 0);
    const auto bump = [](std::uint32_t v) { return v + 1; };
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int r = 0; r < kRounds; ++r) {
                // The first round dirties (and so ships) the half that is
                // about to be unmapped; later rounds keep to the first half.
                const int pages = r == 0 ? kPages : kHalf;
                for (int p = 0; p < pages; ++p) {
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize + 128, bump);
                }
                if (r == 0) g.write<std::uint32_t>(buf + kPages * kPageSize, 1);
                g.migrate(r % 2 == 0 ? 2 : 1);
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (int i = 0; i < 3 * kRounds; ++i) {
                for (int p = 0; p < kHalf; ++p) {
                    g.rmw_u32(buf + static_cast<Vaddr>(p) * kPageSize, bump);
                }
                g.compute(2_us);
            }
        },
        1);
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            while (g.read<std::uint32_t>(buf + kPages * kPageSize) == 0) {
                g.compute(1_us);
            }
            g.munmap(buf + kHalf * kPageSize, kHalf * kPageSize);
        },
        3);
    machine.run();
    return finish(machine);
}

/// Kills the requester or the source of a working-set surrender in flight
/// (DESIGN.md §15). Two writers dirty their own pages on k1 and migrate to
/// k2, so the origin k0 has k1 surrender both working sets straight to k2.
/// The seed picks the victim — k2, the requester, or k1, the source — and
/// a kill time across the surrender window: before the pull, mid-capture,
/// between pushes, after the replies. A reader on the immortal origin then
/// re-faults every page. Each one must read back its writer's value or
/// zero (its only copy died with the victim), never stale or foreign bytes;
/// the audits check that no surviving copy lacks a directory entry and no
/// busy bit or pending install leaks.
ScenarioResult run_surrender_kill(const ExploreConfig& cfg) {
    constexpr int kWriters = 2;
    constexpr int kPages = 12;
    Machine machine(elastic_storm_config(cfg));
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn(
        [&](Guest& g) { buf = g.mmap(kWriters * kPages * kPageSize); }, 0);
    // The failure detector keeps ticking on the origin; k2 and k3 announce
    // themselves (a peer never heard from has no lease to expire).
    process.spawn([](Guest& g) { g.compute(1_ms); }, 0);
    process.spawn([](Guest& g) { g.compute(150_us); }, 2);
    process.spawn([](Guest& g) { g.compute(150_us); }, 3);
    const auto page_of = [&buf](int w, int p) {
        return buf + static_cast<Vaddr>(w * kPages + p) * kPageSize;
    };
    for (int w = 0; w < kWriters; ++w) {
        process.spawn(
            [&, w](Guest& g) {
                g.join(init);
                g.compute(200_us);
                for (int p = 0; p < kPages; ++p) {
                    g.write<std::uint32_t>(page_of(w, p), 0x100u * (w + 1) + p);
                }
                g.migrate(2);
                g.compute(20_us);
            },
            1);
    }
    bool torn = false;
    process.spawn(
        [&](Guest& g) {
            g.join(init);
            g.compute(1_ms); // past the kill and its lease expiry
            for (int w = 0; w < kWriters; ++w) {
                for (int p = 0; p < kPages; ++p) {
                    const std::uint32_t v = g.read<std::uint32_t>(page_of(w, p));
                    torn = torn || (v != 0 && v != 0x100u * (w + 1) + p);
                }
            }
        },
        0);
    // Unperturbed, k1 receives the two surrenders at ~312-318 us and its
    // pushes reach k2 until ~328 us; the kill times span 306-336 us.
    const topo::KernelId victim = cfg.seed % 2 == 0 ? 2 : 1;
    const Nanos kill_at = 306_us + static_cast<Nanos>((cfg.seed / 2) % 16) * 2_us;
    machine.run_until(kill_at);
    machine.kill_kernel(victim);
    machine.run();
    ScenarioResult res = finish(machine);
    if (torn) {
        res.report.fail("surrender.torn_page",
                        "a page read back neither its writer's value nor zero");
    }
    return res;
}

// ---------------------------------------------------------------------------
// Sweep driver.
// ---------------------------------------------------------------------------

// Gated inline checks (RKO_ASSERT in the protocol paths) abort rather than
// report; this hook makes the abort name the seed being explored so the
// failure is replayable. Written before each run, emitted async-signal-
// safely from the handler.
char g_abort_context[256];
std::size_t g_abort_context_len = 0;

extern "C" void explore_abort_handler(int) {
    if (g_abort_context_len > 0) {
        const ssize_t n = ::write(2, g_abort_context, g_abort_context_len);
        (void)n;
    }
    std::signal(SIGABRT, SIG_DFL);
}

void set_abort_context(const char* scenario, std::uint64_t seed,
                       const SweepOptions& opt) {
    const int n = std::snprintf(
        g_abort_context, sizeof g_abort_context,
        "\nrko_explore: aborted at scenario=%s seed=%llu\n"
        "  repro: rko_explore --scenario %s --seeds 1 --first-seed %llu "
        "--jitter %lld%s\n",
        scenario, static_cast<unsigned long long>(seed), scenario,
        static_cast<unsigned long long>(seed),
        static_cast<long long>(opt.delivery_jitter),
        opt.shuffle_ties ? "" : " --no-shuffle");
    g_abort_context_len =
        n > 0 ? std::min(static_cast<std::size_t>(n), sizeof g_abort_context - 1)
              : 0;
}

void install_abort_handler() {
    static bool installed = false;
    if (!installed) {
        std::signal(SIGABRT, explore_abort_handler);
        installed = true;
    }
}

void print_repro(const Scenario& s, std::uint64_t seed, const SweepOptions& opt,
                 const char* why) {
    std::fprintf(stderr,
                 "rko_explore: FAIL scenario=%s seed=%llu (%s)\n"
                 "  repro: rko_explore --scenario %s --seeds 1 --first-seed %llu "
                 "--jitter %lld%s\n",
                 s.name, static_cast<unsigned long long>(seed), why, s.name,
                 static_cast<unsigned long long>(seed),
                 static_cast<long long>(opt.delivery_jitter),
                 opt.shuffle_ties ? "" : " --no-shuffle");
}

} // namespace

const std::vector<Scenario>& scenarios() {
    static const std::vector<Scenario> list = {
        {"migration_storm",
         "4 threads hop kernels every round while hammering one shared page",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_migration_storm},
        {"fault_munmap_race",
         "munmap/remap loop races remote writers faulting the region in",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_fault_munmap_race},
        {"futex_ping",
         "cross-kernel futex ping-pong with a third thread's timed waits",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_futex_ping},
        {"mprotect_demote",
         "mprotect write-bit demotion cycles race readers and writers",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_mprotect_demote},
        {"inject_lost_invalidate",
         "drops one invalidation; the audit MUST flag the stale PTE",
         /*content_deterministic=*/true, /*expect_violation=*/true,
         &run_inject_lost_invalidate},
        {"balancer_storm",
         "aggressive affinity balancer races migrations, faults, and exits",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_balancer_storm},
        {"invalidate_storm",
         "write storm fans invalidations out to 3 sharers while munmap "
         "revokes half the region",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_invalidate_storm},
        {"prefetch_race",
         "fault-around pushes race write upgrades and munmap of the tail",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_prefetch_race},
        {"kill_storm",
         "two kernels fail-stop mid-run; leases expire and the survivors "
         "re-home their state",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_kill_storm},
        {"join_storm",
         "half the machine boots parted, hot-joins under load, then one "
         "kernel drains onto the new capacity",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_join_storm},
        {"futex_convoy",
         "convoys on one mutex word race batched grants, handoffs, "
         "timeouts, a kernel kill, and a drain",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_futex_convoy},
        {"home_storm",
         "8-way sharded homes under a cross-kernel fault storm; a "
         "shard-owning kernel dies and another drains mid-run",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_home_storm},
        {"migrate_under_write_sharing",
         "a writer migrates every round with workset pre-copy armed while "
         "two kernels keep the region write-shared",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_migrate_under_write_sharing},
        {"migrate_ownership_race",
         "a migrant's owned pages are pulled while a sibling on the source "
         "writes them and a munmap drops half the region",
         /*content_deterministic=*/true, /*expect_violation=*/false,
         &run_migrate_ownership_race},
        {"surrender_kill",
         "the requester or the source of a working-set surrender is killed "
         "while its pages are in flight",
         /*content_deterministic=*/false, /*expect_violation=*/false,
         &run_surrender_kill},
    };
    return list;
}

const Scenario* find_scenario(const std::string& name) {
    for (const Scenario& s : scenarios()) {
        if (name == s.name) return &s;
    }
    return nullptr;
}

SweepStats sweep(const Scenario& scenario, const SweepOptions& options) {
    install_abort_handler();
    SweepStats stats;
    bool have_reference = false;
    std::uint64_t reference_content = 0;
    std::uint64_t reference_seed = 0;
    for (int i = 0; i < options.seeds; ++i) {
        const std::uint64_t seed = options.first_seed + static_cast<std::uint64_t>(i);
        const ExploreConfig cfg{seed, options.delivery_jitter, options.shuffle_ties};
        set_abort_context(scenario.name, seed, options);
        const ScenarioResult first = scenario.run(cfg);
        const ScenarioResult again = scenario.run(cfg);
        ++stats.runs;
        stats.sim_time += first.vtime;

        if (first.replay_hash != again.replay_hash) {
            ++stats.replay_mismatches;
            print_repro(scenario, seed, options,
                        "same seed produced different replay hashes");
        }
        const bool clean = first.report.ok();
        if (clean == scenario.expect_violation) {
            ++stats.violations;
            print_repro(scenario, seed, options,
                        scenario.expect_violation
                            ? "injected fault went undetected"
                            : "invariant violations");
            if (!clean) {
                std::fprintf(stderr, "%s", first.report.to_string().c_str());
            }
        }
        if (scenario.content_deterministic && !scenario.expect_violation) {
            if (!have_reference) {
                have_reference = true;
                reference_content = first.content_hash;
                reference_seed = seed;
            } else if (first.content_hash != reference_content) {
                ++stats.content_mismatches;
                std::fprintf(stderr,
                             "rko_explore: content hash differs from seed %llu's\n",
                             static_cast<unsigned long long>(reference_seed));
                print_repro(scenario, seed, options, "schedule leaked into results");
            }
        }
        if (options.verbose) {
            std::printf("  %s seed=%llu content=%016llx replay=%016llx "
                        "vtime=%lld msgs=%llu violations=%zu\n",
                        scenario.name, static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(first.content_hash),
                        static_cast<unsigned long long>(first.replay_hash),
                        static_cast<long long>(first.vtime),
                        static_cast<unsigned long long>(first.messages),
                        first.report.violations().size());
        }
    }
    g_abort_context_len = 0;
    return stats;
}

} // namespace rko::check
