// Three-leg demand faults (DESIGN.md §14): when the home's transaction for
// a remote requester needs bytes from exactly one other kernel — a read of
// a page held elsewhere, or a write whose only remote victim holds the
// bytes — that kernel answers the requester's fault RPC itself and acks
// the home dataless. Every request a home sends a holder is one
// kPageSurrender. These tests pin which faults forward, that the page
// crosses the fabric once, the surrender's wire sizes, and that a kill of
// the holder or the requester anywhere in the forwarded leg leaves exactly
// one answer per ticket, no leaked busy bit or pending install, and a
// clean invariant audit; and that a requester whose node learns of its
// home's death before its home map does waits for the map instead of
// spinning its fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/wire.hpp"
#include "rko/smp/smp.hpp"

namespace rko {
namespace {

using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using api::MachineConfig;
using mem::kPageSize;
using mem::Vaddr;

constexpr topo::KernelId kHome = 0; // the origin: unsharded, it homes every page
constexpr topo::KernelId kHolder = 1;
constexpr topo::KernelId kRequester = 2;
constexpr std::uint64_t kValue = 0x700;

MachineConfig forward_config() {
    MachineConfig config = smp::popcorn_config(8, 4);
    config.home_shards = 1; // the home is the immortal origin
    config.frames_per_kernel = 4096;
    config.check = true;    // audit the invariants at every quiesce
    return config;
}

/// The home's directory holds no busy entry, pending install or
/// surrendering flag: every transaction committed or rolled back.
void expect_directory_idle(Machine& machine, Pid pid, Nanos kill_at) {
    for (auto& shard : machine.kernel(kHome).site(pid).dir_shards()) {
        for (const auto& [vpn, entry] : shard.entries) {
            EXPECT_FALSE(entry.busy) << "leaked busy bit, kill_at=" << kill_at;
        }
        EXPECT_TRUE(shard.pending.empty()) << "kill_at=" << kill_at;
        EXPECT_TRUE(shard.pending_from.empty()) << "kill_at=" << kill_at;
        EXPECT_TRUE(shard.surrendering.empty()) << "kill_at=" << kill_at;
    }
}

/// Every fault RPC the (live) requester posted got exactly one reply: a
/// second one would have tripped "reply for unknown ticket", a missing one
/// would have hung the guest.
void expect_one_answer_per_ticket(Machine& machine, Nanos kill_at) {
    kernel::Kernel& k = machine.kernel(kRequester);
    EXPECT_EQ(k.node().dispatched(msg::MsgType::kPageFault) +
                  k.node().dispatched(msg::MsgType::kPageFaultBatch),
              k.pages().remote_faults())
        << "kill_at=" << kill_at;
}

/// Every live kernel's allocated frames are exactly the frames its page
/// tables map (a revoked frame neither restored nor freed shows up here).
void expect_frames_balanced(Machine& machine, Pid pid, Nanos kill_at) {
    for (topo::KernelId k = 0; k < machine.config().nkernels; ++k) {
        if (machine.is_killed(k)) continue;
        kernel::Kernel& kern = machine.kernel(k);
        const std::size_t mapped =
            kern.has_site(pid) ? kern.site(pid).space().page_table().present_pages() : 0;
        EXPECT_EQ(kern.frames().total_frames() - kern.frames().free_frames(), mapped)
            << "k" << k << " kill_at=" << kill_at;
    }
}

bool maps(Machine& machine, topo::KernelId k, Pid pid, Vaddr va) {
    if (machine.is_killed(k) || !machine.kernel(k).has_site(pid)) return false;
    const mem::Pte* pte = machine.kernel(k).site(pid).space().page_table().find(va);
    return pte != nullptr && pte->present;
}

// A one-page surrender carries its reply-to in the fixed head, so a
// forwarded one costs what any other does; the reply carries a page only
// when the asking home wants the bytes.
TEST(ThreeLegFault, OnePageSurrenderWireSize) {
    core::PageSurrenderReq req{};
    req.count = 1;
    EXPECT_EQ(core::wire_bytes(req), 80u);
    req.reply_to.ticket = 9;
    EXPECT_EQ(core::wire_bytes(req), 80u);
    req.count = 3;
    EXPECT_EQ(core::wire_bytes(req), 80u + 2 * sizeof(std::uint64_t));

    core::PageSurrenderResp resp{};
    resp.shipped = 1;
    EXPECT_EQ(core::wire_bytes(resp), 5u);
    resp.data_included = true;
    EXPECT_EQ(core::wire_bytes(resp), 5u + kPageSize);
}

/// `owners` dirty one page each in turn (the last one ends up holding it
/// Exclusive, or every reader Shared), then `fault` runs on `faulter`.
/// Counts the bytes each channel carried during the fault.
struct FaultRun {
    Vaddr page = 0;
    std::uint64_t value = 0;
    std::uint64_t holder_to_home = 0;
    std::uint64_t holder_to_requester = 0;
    std::uint64_t home_to_requester = 0;
    std::uint64_t total = 0; ///< every channel
};

FaultRun run_fault(Machine& machine, api::Process& process,
                   const std::vector<std::pair<topo::KernelId, bool>>& setup,
                   topo::KernelId faulter, bool write) {
    FaultRun r;
    Vaddr& page = r.page;
    process.spawn([&](Guest& g) { page = g.mmap(kPageSize); }, kHome);
    machine.run();
    for (const auto& [k, writes] : setup) {
        process.spawn(
            [&, writes](Guest& g) {
                if (writes) {
                    g.write<std::uint64_t>(page, kValue);
                } else {
                    (void)g.read<std::uint64_t>(page);
                }
            },
            k);
        machine.run();
    }
    auto& fabric = machine.fabric();
    const auto bytes = [&fabric](topo::KernelId a, topo::KernelId b) {
        return fabric.channel(a, b).bytes_sent();
    };
    const std::uint64_t h0 = bytes(kHolder, kHome);
    const std::uint64_t hr = bytes(kHolder, kRequester);
    const std::uint64_t r0 = bytes(kHome, kRequester);
    const std::uint64_t t0 = machine.total_message_bytes();
    process.spawn(
        [&](Guest& g) {
            if (write) g.write<std::uint64_t>(page + 8, 1);
            r.value = g.read<std::uint64_t>(page);
        },
        faulter);
    machine.run();
    process.check_all_joined();
    r.holder_to_home = bytes(kHolder, kHome) - h0;
    r.holder_to_requester = bytes(kHolder, kRequester) - hr;
    r.home_to_requester = bytes(kHome, kRequester) - r0;
    r.total = machine.total_message_bytes() - t0;
    return r;
}

// A read of a page k1 owns Exclusive, from k2: k1 downgrades and sends k2
// the page, the home sees only small messages, and the directory ends
// Shared {k1, k2} as for a four-leg fault.
TEST(ThreeLegFault, ThirdKernelReadCrossesTheFabricOnce) {
    Machine machine(forward_config());
    auto& process = machine.create_process(kHome);
    const FaultRun r = run_fault(machine, process, {{kHolder, true}}, kRequester, false);
    EXPECT_EQ(r.value, kValue);
    EXPECT_EQ(machine.kernel(kHolder).pages().forwarded(), 1u);
    EXPECT_GE(r.holder_to_requester, kPageSize);
    EXPECT_LT(r.holder_to_home, kPageSize);
    EXPECT_LT(r.home_to_requester, kPageSize);
    const core::PageDirEntry& e =
        machine.kernel(kHome).site(process.pid()).dir_shard(mem::vpn_of(r.page)).entries.at(
            mem::vpn_of(r.page));
    EXPECT_EQ(e.state, core::PageDirEntry::State::kShared);
    EXPECT_EQ(e.sharers, topo::kbit(kHolder) | topo::kbit(kRequester));
    EXPECT_TRUE(maps(machine, kHolder, process.pid(), r.page));
    expect_one_answer_per_ticket(machine, 0);
    expect_directory_idle(machine, process.pid(), 0);
}

// A write whose only victim is the remote owner: the owner revokes its
// copy and ships it to the writer, which ends the Exclusive owner.
TEST(ThreeLegFault, SingleVictimWriteForwards) {
    Machine machine(forward_config());
    auto& process = machine.create_process(kHome);
    const FaultRun r = run_fault(machine, process, {{kHolder, true}}, kRequester, true);
    EXPECT_EQ(r.value, kValue);
    EXPECT_EQ(machine.kernel(kHolder).pages().forwarded(), 1u);
    EXPECT_GE(r.holder_to_requester, kPageSize);
    EXPECT_LT(r.holder_to_home, kPageSize);
    EXPECT_LT(r.home_to_requester, kPageSize);
    EXPECT_FALSE(maps(machine, kHolder, process.pid(), r.page));
    expect_one_answer_per_ticket(machine, 0);
    expect_directory_idle(machine, process.pid(), 0);
    expect_frames_balanced(machine, process.pid(), 0);
}

// Two remote victims (k1 and k3 share the page): the invalidations fan out
// from the home, which supplies the bytes itself — no forwarding.
TEST(ThreeLegFault, MultiVictimWriteKeepsTheHomePath) {
    Machine machine(forward_config());
    auto& process = machine.create_process(kHome);
    const FaultRun r = run_fault(machine, process, {{kHolder, true}, {3, false}},
                                 kRequester, true);
    EXPECT_EQ(r.value, kValue);
    // k3's read was the only forwarded fault (k1 sent it the page).
    EXPECT_EQ(machine.kernel(kHolder).pages().forwarded(), 1u);
    EXPECT_EQ(machine.kernel(3).pages().forwarded(), 0u);
    EXPECT_GE(r.home_to_requester, kPageSize);
    EXPECT_LT(r.holder_to_requester, kPageSize);
    expect_directory_idle(machine, process.pid(), 0);
}

// Three sharers, one of them the home, and a fourth kernel writes: the
// home's own copy is the byte source and both remote sharers drop theirs
// (kDrop, dataless answers), so exactly one page crosses the fabric.
TEST(ThreeLegFault, ThreeSharerWriteDropsTheVictimsAndMovesOnePage) {
    Machine machine(forward_config());
    auto& process = machine.create_process(kHome);
    const FaultRun r = run_fault(machine, process,
                                 {{kHolder, true}, {kHome, false}, {3, false}},
                                 kRequester, true);
    EXPECT_EQ(r.value, kValue);
    EXPECT_GE(r.home_to_requester, kPageSize);
    EXPECT_LT(r.holder_to_home, kPageSize);
    EXPECT_LT(r.holder_to_requester, kPageSize);
    EXPECT_LT(r.total, 2 * kPageSize) << "a second page crossed the fabric";
    for (const topo::KernelId k : {kHome, kHolder, topo::KernelId{3}}) {
        EXPECT_FALSE(maps(machine, k, process.pid(), r.page)) << "k" << k;
    }
    expect_directory_idle(machine, process.pid(), 0);
    expect_frames_balanced(machine, process.pid(), 0);
}

// The home itself faulting: its bytes land at the home anyway, in the
// reply to the one kPageSurrender it sends the Exclusive owner.
TEST(ThreeLegFault, HomeLocalRequesterKeepsTheFetch) {
    Machine machine(forward_config());
    auto& process = machine.create_process(kHome);
    const FaultRun r = run_fault(machine, process, {{kHolder, true}}, kHome, false);
    EXPECT_EQ(r.value, kValue);
    EXPECT_EQ(machine.kernel(kHolder).pages().forwarded(), 0u);
    EXPECT_EQ(machine.kernel(kHolder).node().dispatched(msg::MsgType::kPageSurrender), 1u);
    EXPECT_GE(r.holder_to_home, kPageSize);
    EXPECT_LT(r.holder_to_home, 2 * kPageSize);
    EXPECT_TRUE(maps(machine, kHolder, process.pid(), r.page)); // downgraded, kept
    expect_directory_idle(machine, process.pid(), 0);
}

// --- Kills anywhere in the forwarded leg ------------------------------------

MachineConfig kill_config() {
    MachineConfig config = forward_config();
    config.balance.policy = balance::Policy::kIdleSteal;
    config.balance.period = 20_us;
    config.balance.min_residency = 50_us;
    config.balance.migration_budget = 4;
    config.elastic.enabled = true;
    config.elastic.lease_misses = 4;
    return config;
}

struct KillRun {
    std::uint64_t value = 0;  ///< what the requester read back
    Nanos fault_start = 0;    ///< the requester's fault, unperturbed
    Nanos fault_end = 0;
    // Counted from the fault's start:
    bool acked = false;       ///< the home got the holder's ack
    bool holder_got_request = false;
    bool holder_shipped = false;
    bool holder_sent_page = false; ///< a page's bytes left k1 for k2
    bool holder_maps = false; ///< after the run
    std::uint64_t reread = 0; ///< a fresh reader's value at the origin
};

/// After a lease warm-up, k1 dirties page A; k2, whose VMA replica a read
/// of page B already warmed, then faults on A (`write`: a write to another
/// word of A, then a read of k1's word) — a forwarded fault whose holder is
/// k1, and the only remote fault from the requester's `fault_start` on.
/// With kill_at > 0, `victim` is killed then; `seen_by` (if >= 0) declares
/// it dead at once, every other kernel a lease later. Afterwards a fresh
/// reader on the origin re-reads k1's word.
KillRun run_kill(bool write, topo::KernelId victim, Nanos kill_at,
                 topo::KernelId seen_by) {
    Machine machine(kill_config());
    auto& process = machine.create_process(kHome);
    Vaddr a = 0;
    process.spawn([&](Guest& g) { a = g.mmap(2 * kPageSize); }, kHome);
    machine.run();
    const Vaddr b = a + kPageSize;
    constexpr msg::MsgType leg = msg::MsgType::kPageSurrender;
    msg::Node& home = machine.kernel(kHome).node();
    msg::Node& holder = machine.kernel(kHolder).node();
    core::PageOwner& holder_pages = machine.kernel(kHolder).pages();
    std::uint64_t acks0 = 0;
    std::uint64_t requests0 = 0;
    std::uint64_t shipped0 = 0;
    std::uint64_t bytes0 = 0;
    const msg::Channel& to_requester = machine.fabric().channel(kHolder, kRequester);
    KillRun r;
    // The failure detector keeps ticking on the origin; every peer
    // announces itself (a peer never heard from has no lease to expire).
    process.spawn([](Guest& g) { g.compute(2_ms); }, kHome);
    process.spawn([](Guest& g) { g.compute(60_us); }, 3);
    process.spawn(
        [&](Guest& g) {
            g.compute(60_us);
            g.write<std::uint64_t>(a, kValue);
        },
        kHolder);
    process.spawn(
        [&](Guest& g) {
            g.compute(80_us);
            (void)g.read<std::uint64_t>(b);
            g.compute(20_us);
            g.flush_timing();
            r.fault_start = g.now();
            acks0 = home.dispatched(leg);
            requests0 = holder.dispatched(leg);
            shipped0 = holder_pages.forwarded();
            bytes0 = to_requester.bytes_sent();
            if (write) g.write<std::uint64_t>(a + 8, 1);
            r.value = g.read<std::uint64_t>(a);
            g.flush_timing();
            r.fault_end = g.now();
        },
        kRequester);
    if (kill_at > 0) {
        machine.run_until(kill_at);
        machine.kill_kernel(victim);
        if (seen_by >= 0) machine.kernel(seen_by).node().set_peer_dead(victim);
    }
    machine.run();
    process.check_all_joined();
    r.acked = home.dispatched(leg) > acks0;
    r.holder_got_request = holder.dispatched(leg) > requests0;
    r.holder_shipped = holder_pages.forwarded() > shipped0;
    r.holder_sent_page = to_requester.bytes_sent() - bytes0 >= kPageSize;
    r.holder_maps = maps(machine, kHolder, process.pid(), a);
    if (!machine.is_killed(kRequester)) expect_one_answer_per_ticket(machine, kill_at);
    expect_directory_idle(machine, process.pid(), kill_at);
    expect_frames_balanced(machine, process.pid(), kill_at);

    process.spawn([&](Guest& g) { r.reread = g.read<std::uint64_t>(a); }, kHome);
    machine.run();
    process.check_all_joined();
    expect_directory_idle(machine, process.pid(), kill_at);
    return r;
}

/// Calls `each(kill_at, run)` for kill times 100 ns apart across the
/// requester's unperturbed fault.
void sweep_kills(bool write, topo::KernelId victim, topo::KernelId seen_by,
                 const std::function<void(Nanos, const KillRun&)>& each) {
    const KillRun ref = run_kill(write, victim, 0, -1);
    ASSERT_EQ(ref.value, kValue);
    ASSERT_TRUE(ref.holder_shipped) << "the unperturbed fault must forward";
    for (Nanos at = ref.fault_start; at <= ref.fault_end; at += 100) {
        each(at, run_kill(write, victim, at, seen_by));
    }
}

// The holder dies before it sends (the requester gets a retry once the
// home declares it dead, and refaults a zero page: the sole copy died),
// after its forwarded reply but before its ack to the home (the
// requester's confirm already committed the page; the home never answers
// the ticket again), or after both.
TEST(ThreeLegFault, HolderKillAnywhereInTheLegAnswersOnce) {
    for (const bool write : {false, true}) {
        int before_send = 0;
        int between = 0;
        int after_ack = 0;
        sweep_kills(write, kHolder, -1, [&](Nanos at, const KillRun& r) {
            const bool replied = r.value == kValue;
            EXPECT_TRUE(replied || r.value == 0) << "write=" << write << " kill_at=" << at;
            EXPECT_TRUE(replied || !r.acked) << "write=" << write << " kill_at=" << at;
            EXPECT_EQ(r.reread, r.value) << "write=" << write << " kill_at=" << at;
            before_send += replied ? 0 : 1;
            between += replied && !r.acked ? 1 : 0;
            after_ack += replied && r.acked ? 1 : 0;
        });
        // Not vacuous: the sweep lands in each of the three windows.
        EXPECT_GT(before_send, 0) << "write=" << write;
        EXPECT_GT(between, 0) << "write=" << write;
        EXPECT_GT(after_ack, 0) << "write=" << write;
    }
}

// The requester dies after the home forwards; the holder's failure
// detector fires at the kill, the home's a lease later. A holder that sees
// the requester dead before it sends keeps its copy (a revoked one is
// restored) and the home rolls the entry back to it; one that shipped into
// the void had its pending abandoned by the home's reap. A read's holder
// keeps its (downgraded) copy either way; a write's page is k1's iff k1
// still maps it, and otherwise died with the requester — only after k1
// really sent it (a send after the kill is dropped, not put on the wire).
TEST(ThreeLegFault, RequesterKillAfterTheForwardLeavesNoPending) {
    for (const bool write : {false, true}) {
        int kept = 0;
        int shipped = 0;
        sweep_kills(write, kRequester, kHolder, [&](Nanos at, const KillRun& r) {
            if (!write || r.holder_maps) {
                EXPECT_EQ(r.reread, kValue) << "write=" << write << " kill_at=" << at;
            } else {
                EXPECT_EQ(r.reread, 0u) << "write=" << write << " kill_at=" << at;
                EXPECT_TRUE(r.holder_sent_page) << "write=" << write << " kill_at=" << at;
            }
            kept += r.holder_got_request && !r.holder_shipped ? 1 : 0;
            shipped += r.holder_shipped ? 1 : 0;
        });
        EXPECT_GT(kept, 0) << "write=" << write;
        EXPECT_GT(shipped, 0) << "write=" << write;
    }
}

// --- A home death the requester's node learns of first ----------------------

// At 4 home shards, the home of a page dies and the requester's node is
// told at once (as a kill sweep does), while its home map still names the
// corpse until the lease expires. The requester's fault must wait for the
// map to re-home the shard, then complete; refaulting at once would burn
// every MMU retry against the dead home.
TEST(ThreeLegFault, FaultWaitsForTheHomeMapAfterANodeLevelDeath) {
    MachineConfig config = kill_config();
    config.home_shards = 4;
    // A lease long enough for 64 immediate refaults to run out first.
    config.elastic.lease_misses = 16;
    Machine machine(config);
    auto& process = machine.create_process(kHome);
    constexpr int kPages = 16;
    Vaddr buf = 0;
    process.spawn([&](Guest& g) { buf = g.mmap(kPages * kPageSize); }, kHome);
    machine.run();
    // A page homed neither at the immortal origin nor at the requester.
    core::ProcessSite& origin_site = machine.kernel(kHome).site(process.pid());
    Vaddr page = 0;
    topo::KernelId home = -1;
    for (int p = 0; p < kPages && home < 0; ++p) {
        const Vaddr va = buf + static_cast<Vaddr>(p) * kPageSize;
        const topo::KernelId h = machine.kernel(kHome).pages().home_of(origin_site, va);
        if (h != kHome && h != kRequester) {
            page = va;
            home = h;
        }
    }
    ASSERT_GE(home, 0) << "no page of the region is homed off the origin and requester";

    process.spawn([](Guest& g) { g.compute(2_ms); }, kHome);
    for (const topo::KernelId k : {kHolder, topo::KernelId{3}}) {
        process.spawn([](Guest& g) { g.compute(60_us); }, k);
    }
    std::uint64_t value = 1;
    Nanos fault_end = 0;
    process.spawn(
        [&](Guest& g) {
            g.compute(100_us);
            value = g.read<std::uint64_t>(page);
            g.flush_timing();
            fault_end = g.now();
        },
        kRequester);
    machine.run_until(95_us);
    machine.kill_kernel(home);
    machine.kernel(kRequester).node().set_peer_dead(home);
    machine.run();
    process.check_all_joined();
    EXPECT_EQ(value, 0u); // never written: the new home zero-fills
    EXPECT_GT(fault_end, 100_us);
    EXPECT_NE(machine.kernel(kRequester).pages().home_of(
                  machine.kernel(kRequester).site(process.pid()), page),
              home);
}

} // namespace
} // namespace rko
