// The mmap write lock (DESIGN.md §10, page_owner.cpp rule 6): every write
// hold is a no-yield window over PTE edits and the TLB-generation bump.
// Frame allocation, page copy or zeroing, frame frees and the shootdown
// are charged outside it, so one kernel's concurrent faults do not queue
// behind each other's installs; MmapWriteGuard asserts the rule under
// RKO_CHECK. These tests pin that concurrent installs overlap, that a
// munmap landing between an install's frame fill and its map leaves no
// PTE behind once the sweep finishes, and that the guard catches a cost
// charged under the hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "rko/api/machine.hpp"
#include "rko/check/gate.hpp"
#include "rko/check/invariants.hpp"
#include "rko/smp/smp.hpp"

namespace rko {
namespace {

using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using api::MachineConfig;
using mem::kPageSize;
using mem::Vaddr;

/// Measures one guest operation with exact timing (bench idiom).
template <typename Fn>
Nanos timed(Guest& g, Fn&& fn) {
    g.flush_timing();
    const Nanos t0 = g.now();
    fn();
    g.flush_timing();
    return g.now() - t0;
}

/// Parks the calling guest until virtual time `at`.
void compute_until(Guest& g, Nanos at) {
    g.flush_timing();
    if (g.now() < at) g.compute(at - g.now());
    g.flush_timing();
}

TEST(MmapWriteHold, ConcurrentInstallsDoNotSerialize) {
    // Kernel 1 read-faults four pages at the same instant, each held
    // Exclusive by its own kernel (2..5): the home forwards each fault to
    // its holder, and the four answers reach kernel 1 together over four
    // channels. Its dispatcher demuxes them one msg_dispatch apart; beyond
    // that, only queueing on the mmap lock could stagger the faults.
    constexpr int kThreads = 4;
    constexpr topo::KernelId kRequester = 1;
    constexpr Nanos kStart = 200_us;
    MachineConfig config = smp::popcorn_config(4 * (kThreads + 2), kThreads + 2);
    config.home_shards = 1; // the origin homes every page: four identical faults
    Machine machine(config);
    auto& process = machine.create_process(0);
    Vaddr buf = 0;
    auto& init = process.spawn([&](Guest& g) { buf = g.mmap((kThreads + 1) * kPageSize); }, 0);
    std::array<api::Thread*, kThreads> writers{};
    for (int t = 0; t < kThreads; ++t) {
        writers[static_cast<std::size_t>(t)] = &process.spawn(
            [&, t](Guest& g) {
                g.join(init);
                g.write<std::uint64_t>(buf + static_cast<Vaddr>(t) * kPageSize,
                                       static_cast<std::uint64_t>(t) + 1);
            },
            static_cast<topo::KernelId>(kRequester + 1 + t));
    }
    // Page kThreads warms the requester's VMA replica before the start.
    auto& warm = process.spawn(
        [&](Guest& g) {
            g.join(init);
            for (api::Thread* w : writers) g.join(*w);
            (void)g.read<std::uint64_t>(buf + kThreads * kPageSize);
        },
        kRequester);
    std::array<Nanos, kThreads> took{};
    for (int t = 0; t < kThreads; ++t) {
        process.spawn(
            [&, t](Guest& g) {
                g.join(warm);
                compute_until(g, kStart);
                const Vaddr page = buf + static_cast<Vaddr>(t) * kPageSize;
                took[static_cast<std::size_t>(t)] = timed(g, [&] {
                    EXPECT_EQ(g.read<std::uint64_t>(page),
                              static_cast<std::uint64_t>(t) + 1);
                });
            },
            kRequester);
    }
    machine.run();
    process.check_all_joined();

    // Four zero-length holds arriving together still queue on the lock's
    // own acquire charge and handoff: the k-th waits for k-1 of them.
    const sim::LockCosts lock;
    const Nanos lock_costs =
        kThreads * (kThreads - 1) / 2 * (lock.uncontended + lock.handoff);
    EXPECT_LE(machine.kernel(kRequester).mmap_lock_wait_time(), lock_costs)
        << "faults queued behind each other's installs";
    const Nanos demux = (kThreads - 1) * config.costs.msg_dispatch;
    const auto [fastest, slowest] = std::minmax_element(took.begin(), took.end());
    EXPECT_LE(*slowest - *fastest, demux + lock_costs)
        << "fastest fault " << *fastest << " ns, slowest " << *slowest << " ns";
}

TEST(MmapWriteHold, MunmapBetweenFillAndMapLeavesNoPte) {
    // A 50 us page copy widens the window between the requester's frame
    // fill and its map enough to aim a munmap at it. The munmap's replica
    // update then clears nothing at the requester (no PTE yet), the
    // install maps into the dead range, and the origin's revoke sweep —
    // which waits out the page's busy bit until the install confirms —
    // must drop that copy. Swept over munmap times so at least one lands
    // in the window at either shard setting.
    constexpr topo::KernelId kRequester = 1;
    constexpr Nanos kStart = 200_us;
    const bool checks_were_on = check::enabled();
    check::set_enabled(true); // MmapWriteGuard asserts no charge under a hold
    int landed = 0;
    for (Nanos offset = 0; offset <= 200_us; offset += 10_us) {
        MachineConfig config = smp::popcorn_config(8, 4);
        config.costs.page_copy = 50_us;
        config.check = false; // audited below, so a finding fails the test
        Machine machine(config);
        auto& process = machine.create_process(0);
        Vaddr buf = 0;
        auto& init = process.spawn(
            [&](Guest& g) {
                buf = g.mmap(2 * kPageSize);
                g.write<std::uint64_t>(buf, 7);
                g.write<std::uint64_t>(buf + kPageSize, 8);
            },
            0);
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                (void)g.read<std::uint64_t>(buf + kPageSize); // warm the replica
                compute_until(g, kStart);
                // Segfaults when the munmap wins the race outright.
                EXPECT_EQ(g.read<std::uint64_t>(buf), 7u);
                // The install mapped after the replica dropped the VMA.
                auto& space = machine.kernel(kRequester).site(process.pid()).space();
                const mem::Pte* pte = space.page_table().find(buf);
                if (space.vmas().find(buf) == nullptr && pte != nullptr && pte->present) {
                    ++landed;
                }
            },
            kRequester);
        process.spawn(
            [&](Guest& g) {
                g.join(init);
                compute_until(g, kStart + offset);
                EXPECT_EQ(g.munmap(buf, 2 * kPageSize), 0);
            },
            0);
        machine.run();
        process.check_all_joined();
        for (topo::KernelId k = 0; k < machine.nkernels(); ++k) {
            if (!machine.kernel(k).has_site(process.pid())) continue;
            machine.kernel(k).site(process.pid()).space().page_table().for_each_present(
                buf, buf + 2 * kPageSize, [&](Vaddr va, mem::Pte&) {
                    ADD_FAILURE() << "k" << k << " kept a PTE at 0x" << std::hex << va
                                  << " after munmap, offset " << std::dec << offset;
                });
        }
        const check::Report report = check::run_all(machine);
        EXPECT_TRUE(report.ok()) << "offset " << offset << ": " << report.to_string();
    }
    check::set_enabled(checks_were_on);
    EXPECT_GT(landed, 0) << "no munmap landed between an install's fill and its map";
}

TEST(MmapWriteHoldDeathTest, ChargeUnderTheHoldAborts) {
    const bool checks_were_on = check::enabled();
    check::set_enabled(true);
    EXPECT_DEATH(
        {
            Machine machine(smp::popcorn_config(2, 1));
            auto& process = machine.create_process(0);
            process.spawn(
                [&](Guest&) {
                    mem::MmapWriteGuard guard(machine.kernel(0).site(process.pid()).space());
                    sim::current_actor().sleep_for(machine.costs().tlb_shootdown);
                },
                0);
            machine.run();
        },
        "modeled cost charged under the mmap write lock");
    check::set_enabled(checks_were_on);
}

} // namespace
} // namespace rko
