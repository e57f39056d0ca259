// Task control blocks.
//
// Mirrors the paper's model: each kernel keeps its own task_struct for every
// thread it hosts. A thread that migrates away leaves a *shadow* task at
// the origin (used for back-migration and group bookkeeping) and gets a
// fresh task on the destination kernel. The continuously-executing entity
// (the simulation actor and the guest code on its stack) is owned by the
// api layer's Thread object and is re-pointed between task records as it
// migrates — the protocol messages carry the architectural context
// (registers, FPU state) for cost realism.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "rko/base/units.hpp"
#include "rko/mem/types.hpp"
#include "rko/sim/actor.hpp"
#include "rko/topo/topology.hpp"

namespace rko::task {

enum class TaskState {
    kNew,       ///< created, never scheduled
    kRunnable,  ///< waiting for a core
    kRunning,   ///< owns a core
    kBlocked,   ///< waiting (futex, join, page fault service, ...)
    kMigrating, ///< context in flight to another kernel
    kShadow,    ///< origin-side placeholder for a thread running elsewhere
    kExited,
};

const char* task_state_name(TaskState state);

/// The architectural thread context shipped in a migration message —
/// deliberately sized like a real x86-64 register file + XSAVE area so the
/// transfer cost is honest.
struct ThreadContext {
    std::array<std::uint64_t, 16> gpr{};
    std::uint64_t rip = 0;
    std::uint64_t rflags = 0;
    std::uint64_t fs_base = 0; ///< TLS pointer
    std::array<std::byte, 832> xsave{};
};
static_assert(std::is_trivially_copyable_v<ThreadContext>);

/// Working-set tracker capacity (DESIGN.md §15): the top-K hot pages a
/// migration pre-copies. Also the per-slot bound on the wire structures
/// that ship and pull the set.
inline constexpr std::uint32_t kMaxWorkset = 32;

/// One tracked hot page: heat is bumped on every fault install and halved
/// by the balancer's decay tick so phase shifts age out.
struct WorksetEntry {
    std::uint64_t vpn = 0;
    std::uint32_t heat = 0;
};

struct Task {
    Tid tid = 0;
    Pid pid = 0; ///< thread-group id (process)
    topo::KernelId origin = 0;  ///< kernel where the process was created
    topo::KernelId kernel = 0;  ///< kernel this task record belongs to
    TaskState state = TaskState::kNew;
    bool shadow = false;

    /// Execution vehicle; null for shadows and exited tasks.
    sim::Actor* actor = nullptr;

    // --- scheduling (owned by this kernel's Scheduler) ---
    topo::CoreId core = -1;       ///< -1 when not on a core
    Nanos slice_start = 0;        ///< when the current timeslice began
    bool wake_pending = false;    ///< wake() raced ahead of block_and_wait()

    int exit_status = 0;
    std::string name;

    // --- load balancing (balance/) ---
    /// Where the balancer wants this thread to run next; -1 = stay put.
    /// Written under the scheduler's run-queue lock or by the local balancer,
    /// consumed at the thread's next preemption checkpoint (api layer).
    topo::KernelId balance_target = -1;
    /// True only while the task is parked inside Scheduler::acquire waiting
    /// for a core — the one state in which steal_queued() may detach it.
    bool stealable = false;
    /// Virtual time this record was (re)activated on this kernel; the
    /// balancer's min-residency hysteresis reads it.
    Nanos arrived = 0;
    /// Remote-fault attribution: faults serviced with bytes held by each
    /// kernel since the balancer last decayed the counters. Indexed by
    /// KernelId; feeds the affinity policy.
    std::array<std::uint32_t, topo::kMaxKernels> fault_from{};

    // --- fault-around prefetch (core/page_owner, DESIGN.md §10) ---
    /// Stride detector state: the last page this task faulted on and how
    /// many consecutive faults advanced by exactly one page. Migration
    /// resets both on arrival (Migration::on_migrate) — deliberately, since
    /// the fault stream now crosses a different fabric edge. The reset must
    /// be explicit: a thread revisiting a kernel reactivates its *old* task
    /// record there, and a stale run would fire a bogus multi-page
    /// kPageFaultBatch on the first unrelated fault.
    mem::Vaddr last_fault_page = 0;
    std::uint32_t fault_run = 0;

    // --- working-set migration (core/migration + core/page_owner, §15) ---
    /// Top-K hot-page tracker feeding pre-copy migration: a fault install
    /// bumps its page's heat (claiming a cold slot if absent), the
    /// balancer's decay tick halves every heat so phase shifts age out.
    /// Fixed slots, no heap; zero-heat slots are reclaimable.
    std::array<WorksetEntry, kMaxWorkset> workset{};
    std::uint32_t workset_size = 0;
    /// Pages shipped with this task's checkpoint and not yet pulled: filled
    /// by Migration::on_migrate, drained by the post-resume kWorksetPull
    /// round (PageOwner::workset_prefault).
    std::array<std::uint64_t, kMaxWorkset> pending_workset{};
    std::uint32_t pending_workset_count = 0;
    /// Post-copy boost deadline: until this virtual time the destination
    /// treats this task's remote read faults as streaming (min-run 1,
    /// window widened past kFaultAroundWindow) so the tail outside the
    /// shipped top-K streams in instead of trickling.
    Nanos workset_boost_until = 0;

    /// Records a fault install on `vpn` in the working-set tracker.
    /// O(K) scan, K = kMaxWorkset; called once per page fault, where it is
    /// noise next to the modeled trap cost. When full and every slot is
    /// warm the touch is dropped — a page must outlive a decay tick's
    /// cooling to displace an established entry.
    void workset_touch(std::uint64_t vpn) {
        std::uint32_t coldest = 0;
        std::uint32_t coldest_heat = ~std::uint32_t{0};
        for (std::uint32_t i = 0; i < workset_size; ++i) {
            if (workset[i].vpn == vpn) {
                ++workset[i].heat;
                return;
            }
            if (workset[i].heat < coldest_heat) {
                coldest_heat = workset[i].heat;
                coldest = i;
            }
        }
        if (workset_size < kMaxWorkset) {
            workset[workset_size++] = WorksetEntry{vpn, 1};
        } else if (coldest_heat == 0) {
            workset[coldest] = WorksetEntry{vpn, 1};
        }
    }

    /// Ages the tracker (balancer decay tick): halve every heat.
    void workset_decay() {
        for (std::uint32_t i = 0; i < workset_size; ++i) workset[i].heat >>= 1;
    }

    // --- hierarchical futex owner affinity (core/dfutex, DESIGN.md §13) ---
    /// The word this task last slept on or woke (0 = never). The balancer
    /// matches it against the gossiped hot-word census to steer contenders
    /// toward the grant-holder kernel. Wakes count: a contender that keeps
    /// winning the lock word on its own kernel never sleeps, yet every
    /// unlock it does with waiters parked is a futex wake on that word.
    mem::Vaddr last_futex_word = 0;

    bool on_core() const { return core >= 0; }
};

} // namespace rko::task
