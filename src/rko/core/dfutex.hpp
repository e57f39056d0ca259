// Distributed futex (paper §IV-D): pthread-style synchronization across
// kernel boundaries.
//
// Each kernel owns a futex table serving the processes whose *origin* it
// is — the origin kernel is the futex server for its processes, exactly as
// in Popcorn. In the SMP baseline (one kernel) the single table is shared
// by every process on the machine, reproducing the global-futex-hash
// contention of SMP Linux.
//
// The wait-side race (value changes between the caller's check and the
// enqueue) is closed by re-reading the value at the origin under the bucket
// lock from a locally-valid copy of the page: any write that completed
// globally either updated that frame or invalidated it first (forcing a
// retry), so check+enqueue is atomic with respect to wakes.
//
// The protocol is hierarchical (DESIGN §13). The origin's own waiters
// queue one entry each. Remote waiters on the same (pid, uaddr) aggregate
// into a per-kernel convoy (core/dfutex_local) whose head registers one
// *aggregate* entry per (pid, uaddr, kernel) at the origin — Waiter::tid
// == 0, count-carrying — and wakes fan out as batched kFutexGrantBatch
// RPCs over rpc_scatter. A granted kernel hands the lock around its convoy
// locally (futex.local_handoffs) until the convoy drains or the fairness
// budget (MachineConfig::futex_handoff_cap) expires.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>

#include "rko/core/dfutex_local.hpp"
#include "rko/core/process.hpp"
#include "rko/core/wire.hpp"
#include "rko/msg/node.hpp"
#include "rko/race/race.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::kernel {
class Kernel;
}

namespace rko::base {
class Histogram;
}

namespace rko::core {

inline constexpr int kEagain = 11;
inline constexpr int kEfault = 14;
inline constexpr int kEtimedout = 110;

class DFutex {
public:
    static constexpr std::size_t kBuckets = 256;
    /// Origin queue entries with this tid are per-kernel aggregates
    /// (guest tids start at 1).
    static constexpr Tid kAggregateTid = 0;

    explicit DFutex(kernel::Kernel& k);

    /// Registers kFutexWait/kFutexWake (blocking), kFutexGrantBatch/
    /// kFutexDeregister (leaf).
    void install();

    // --- Configuration (api layer; mirrors pages() setters) ---
    /// Consecutive wake(1)s a granted kernel serves from its own convoy
    /// before the next wake returns to the origin (fairness budget).
    void set_handoff_cap(std::uint32_t cap) {
        handoff_cap_ = cap;
        local_.set_initial_budget(cap);
    }

    // --- Syscall paths (current task's actor) ---
    /// 0 = woken after queueing; kEagain = *uaddr != val; kEtimedout =
    /// `timeout` (>= 0) elapsed first. A negative timeout waits forever.
    /// Timeouts may produce spurious wakeups on other waits if a grant
    /// races the cancellation, exactly as the futex contract allows.
    int wait(task::Task& t, ProcessSite& site, mem::Vaddr uaddr, std::uint32_t val,
             Nanos timeout = -1);
    /// Number of waiters woken (machine-wide).
    int wake(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
             std::uint32_t max_wake);

    // --- Elastic membership hooks (rko/elastic) ---
    /// Origin-side: dequeues every waiter (and aggregate) whose kernel is
    /// `kernel` — a grant to a dead kernel would be a lost wake for the
    /// bucket's survivors. Returns entries removed (aggregates count their
    /// waiters).
    std::size_t remove_kernel_waiters(topo::KernelId kernel);
    /// Waiter-side (drain/evacuate): withdraws `tid` from this kernel's
    /// convoy tier, wildcard word. True if found (caller wakes the task);
    /// sends the origin deregister itself when the convoy drains.
    bool cancel_local(Pid pid, Tid tid, topo::KernelId origin);
    /// Balancer-side: withdraws `t`'s wait on its last futex word from
    /// whichever tier parks it here — the origin table when this kernel is
    /// its origin, else the convoy (cancel_local). True if found (caller
    /// wakes the task: a legal spurious wakeup).
    bool cancel_wait(const task::Task& t);
    /// origin_wake for non-syscall callers (the reaper publishing a lost
    /// thread's CLEARTID word). Returns waiters woken.
    std::uint32_t wake_at_origin(ProcessSite& site, Pid pid, mem::Vaddr uaddr,
                                 std::uint32_t max_wake) {
        return origin_wake(site, pid, uaddr, max_wake);
    }

    // --- Owner-affinity census (balance/) ---
    /// The hottest contended word served by this origin since the last
    /// call, with the kernel last granted it. Decays heat per call (the
    /// balancer invokes it once per gossip tick). owner -1 = none.
    struct HotWord {
        Pid pid = 0;
        mem::Vaddr uaddr = 0;
        topo::KernelId owner = -1;
        std::uint32_t heat = 0;
    };
    HotWord hottest_word();

    std::uint64_t waits() const { return waits_.value; }
    std::uint64_t wakes() const { return wakes_.value; }
    std::uint64_t local_handoffs() const { return local_handoffs_.value; }
    Nanos bucket_wait_time() const;
    /// Waiters currently parked in this kernel's table (both tiers;
    /// aggregates count as their waiter count).
    std::size_t queued_waiters() const;

    /// Read-only view of one queued waiter (rko/check auditors).
    struct WaiterView {
        Pid pid;
        Tid tid; ///< kAggregateTid for origin-side aggregate entries
        topo::KernelId kernel; ///< where the waiting task's record lives
        mem::Vaddr uaddr;
        std::uint32_t count; ///< aggregate: origin's waiter-count estimate
        bool aggregate;      ///< origin entry standing in for a remote convoy
        bool local;          ///< parked in this kernel's convoy tier
    };
    /// Visits every waiter queued on this kernel — the origin table
    /// (direct waiters and aggregates; count-0 aggregate tombstones are
    /// skipped) and the local convoy tier.
    void for_each_waiter(const std::function<void(const WaiterView&)>& fn) const;
    /// Origin's aggregate count for (pid, uaddr, kernel); 0 = none.
    std::uint32_t aggregate_count(Pid pid, mem::Vaddr uaddr,
                                  topo::KernelId kernel) const;
    /// Local-tier convoy size for (pid, uaddr) on this kernel.
    std::size_t local_convoy_size(Pid pid, mem::Vaddr uaddr) const {
        return local_.convoy_size(pid, uaddr);
    }
    /// Bucket locks currently held (must be 0 at quiesce).
    std::size_t locked_buckets() const;
    /// Local-tier convoy lock held (must be false at quiesce).
    bool local_lock_held() const { return local_.lock_held(); }

    /// Splitmix64 over pid and the word address (low 2 bits discarded —
    /// futex words are 4-aligned). Exposed for the distribution unit test.
    static std::size_t bucket_index(Pid pid, mem::Vaddr uaddr) {
        std::uint64_t x = static_cast<std::uint64_t>(pid) ^ (uaddr >> 2);
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>((x ^ (x >> 31)) % kBuckets);
    }

    /// Test-only: re-introduces the PR 6 lost-wake bug shape in
    /// origin_wait — the waiter-liveness decision is sampled *before* the
    /// ensure_readable await (without the bucket lock) and the post-await
    /// re-check under the lock is skipped, so a reaper sweep landing
    /// during the fault protocol leaves an orphan entry. Exists to prove
    /// the race detector catches the bug class (tests/test_race.cpp).
    void set_inject_stale_registration(bool on) {
        inject_stale_registration_ = on;
    }

private:
    struct Waiter {
        Pid pid;
        Tid tid; ///< kAggregateTid => per-kernel aggregate entry
        topo::KernelId kernel;
        mem::Vaddr uaddr;
        std::uint32_t count; ///< aggregate: waiter-count estimate (1 direct)
        std::uint64_t epoch; ///< aggregate: newest report applied
    };

    struct Bucket {
        sim::SpinLock lock;
        std::deque<Waiter> queue;
        /// Await-atomicity shadow for the queue + the sweep state it
        /// implies ("no dead kernel's waiters remain"): every mutation and
        /// every enqueue-decision read goes through it under `lock`.
        race::ShadowCell shadow{"futex.bucket"};
    };

    Bucket& bucket_of(Pid pid, mem::Vaddr uaddr) {
        return table_[bucket_index(pid, uaddr)];
    }

    // Origin-side operations (task actor or kworker). A waiter on another
    // kernel is that kernel's convoy head: it registers an aggregate
    // carrying `convoy_count` at `epoch`.
    std::int32_t origin_wait(ProcessSite& site, Pid pid, Tid tid,
                             topo::KernelId waiter_kernel, mem::Vaddr uaddr,
                             std::uint32_t val, std::uint32_t convoy_count,
                             std::uint64_t epoch, topo::KernelId* owner_hint);
    std::uint32_t origin_wake(ProcessSite& site, Pid pid, mem::Vaddr uaddr,
                              std::uint32_t max_wake);
    /// Removes a timed-out origin waiter; false if it was already granted.
    bool origin_cancel(Pid pid, Tid tid, mem::Vaddr uaddr);
    /// Folds a kernel's authoritative convoy report (registration, grant
    /// reply, or deregister) into the aggregate entry, newest epoch wins.
    /// Caller holds the bucket lock. A report for an absent entry creates
    /// it — count 0 leaves a tombstone that outranks a stale registration
    /// still parked in a blocking handler.
    void apply_report_locked(Bucket& bucket, Pid pid, mem::Vaddr uaddr,
                             topo::KernelId kernel, std::uint32_t count,
                             std::uint64_t epoch);
    void note_grant(Pid pid, mem::Vaddr uaddr, topo::KernelId kernel,
                    std::uint32_t n);
    topo::KernelId owner_of(Pid pid, mem::Vaddr uaddr);

    // Waiter-side hierarchical tier (non-origin kernels).
    int convoy_wait(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
                    std::uint32_t val, Nanos timeout);
    int sleep_or_timeout(task::Task& t, ProcessSite& site, mem::Vaddr uaddr,
                         Nanos timeout);
    void send_deregister(topo::KernelId origin, Pid pid, mem::Vaddr uaddr,
                         std::uint64_t epoch);

    void on_futex_wait(msg::Node& node, msg::MessagePtr m);
    void on_futex_wake(msg::Node& node, msg::MessagePtr m);
    void on_futex_grant_batch(msg::Node& node, msg::MessagePtr m);
    void on_futex_deregister(msg::Node& node, msg::MessagePtr m);

    kernel::Kernel& k_;
    std::array<Bucket, kBuckets> table_;
    DFutexLocal local_;
    std::uint32_t handoff_cap_ = 64;
    bool inject_stale_registration_ = false;

    /// Owner-affinity census per contended word (origin-side; read by the
    /// balancer's gossip tick). Two inputs: decayed per-kernel activity
    /// credits (note_grant — grants plus registrations) and the live
    /// parked-waiter counts from this origin's buckets (hottest_word).
    /// The first crediting kernel is named owner immediately and keeps the
    /// title until another kernel's parked count more than doubles the
    /// incumbent's — under the symmetric load a fairness-budget rotation
    /// produces, any argmax or majority vote would flip the owner every
    /// round and convergence would wait on load noise to break the tie;
    /// the sticky designation makes the owner a stable attractor from the
    /// first park, and the migrations it draws turn the designation into a
    /// genuine majority.
    struct Hot {
        topo::KernelId owner = -1;
        std::vector<std::uint32_t> heat; ///< activity credits by kernel id
        std::uint32_t live = 0; ///< parked waiters at last census tick
    };
    sim::SpinLock hot_lock_;
    std::map<std::pair<Pid, mem::Vaddr>, Hot> hot_words_;

    // Registry-backed ("futex.*" in the kernel's MetricsRegistry).
    trace::Counter& waits_;
    trace::Counter& wakes_;
    trace::Counter& local_handoffs_;
    trace::Counter& aggregated_waits_;
    base::Histogram& grant_fanout_;
};

} // namespace rko::core
