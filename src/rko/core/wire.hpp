// Wire payloads for the replicated-kernel protocols. All trivially
// copyable; each struct corresponds to one MsgType (requests and replies).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "rko/mem/types.hpp"
#include "rko/mem/vma.hpp"
#include "rko/task/task.hpp"
#include "rko/topo/topology.hpp"

namespace rko::core {

// --- VMA consistency (kVmaOp / kVmaFetch / kVmaUpdate) ---------------------

enum class VmaOp : std::uint32_t { kMmap = 0, kMunmap, kMprotect, kBrk };

struct VmaOpReq {
    Pid pid;
    VmaOp op;
    mem::Vaddr addr;   ///< 0 for mmap = "kernel picks"
    std::uint64_t length;
    std::uint32_t prot;
};

struct VmaOpResp {
    std::int64_t result; ///< 0 / -errno
    mem::Vaddr addr;     ///< assigned address for mmap
};

struct VmaFetchReq {
    Pid pid;
    mem::Vaddr addr;
};

struct VmaFetchResp {
    bool found;
    mem::Vma vma;
};

struct VmaUpdateReq {
    Pid pid;
    VmaOp op;          ///< kMunmap = erase range, kMprotect = reprotect
    /// Master vma_epoch after this op (rko/home): replicas advance their
    /// local epoch to at least this, so a non-origin home's in-flight page
    /// transactions re-validate exactly like the origin's do. Occupies what
    /// was a padding hole, so the wire size (and every modeled copy cost)
    /// is unchanged. 32 bits of epoch outlast any simulated run.
    std::uint32_t epoch;
    mem::Vaddr start;
    mem::Vaddr end;
    std::uint32_t prot;
};
static_assert(sizeof(VmaUpdateReq) == 40, "epoch must fill the padding hole");

struct VmaUpdateResp {
    std::uint32_t cleared_pages;
};

// --- Page-ownership protocol (kPageFault / kPageSurrender / kPageInstalled) --

enum class FaultStatus : std::uint32_t { kOk = 0, kSegv, kRetry };

struct PageFaultReq {
    Pid pid;
    mem::Vaddr va;          ///< page-aligned
    std::uint32_t access;   ///< mem::Prot bits
    topo::KernelId requester;
};

struct PageFaultResp {
    FaultStatus status;
    bool data_included; ///< payload carries the page bytes
    bool zero_fill;     ///< first touch: requester allocates a zero page
    bool upgrade;       ///< requester already holds current bytes; flip to RW
    /// Kernel that supplied (or already held) the bytes; feeds the per-thread
    /// fault-affinity counters the balancer's affinity policy reads. Occupies
    /// what was a padding byte, so the wire size (and thus every modeled copy
    /// cost) is unchanged.
    std::uint8_t source;
    std::array<std::byte, mem::kPageSize> data;
};

static_assert(sizeof(PageFaultResp) == 8 + mem::kPageSize,
              "PageFaultResp must keep its pre-`source` wire size: copy costs "
              "are charged per byte and golden baselines depend on them");

/// Where a holder sends the bytes of a forwarded demand fault (DESIGN.md
/// §14, three-leg faults): straight to the requester, as the reply to the
/// kPageFault or kPageFaultBatch RPC it posted to the home. Rides in every
/// PageSurrenderReq; a zero ticket means the request is not a forwarded
/// fault.
struct FaultReplyTo {
    std::uint64_t ticket;        ///< the requester's RPC ticket (nonzero)
    std::uint32_t extra_granted; ///< batch replies: PageFaultBatchResp::extra_granted
    std::uint8_t requester;
    std::uint8_t batch;          ///< reply as kPageFaultBatch, else kPageFault
};

/// Third leg of a remote fault: the requester confirms (or abandons) its
/// local install so the directory can commit and release the busy bit.
struct PageInstalledMsg {
    Pid pid;
    mem::Vaddr va;
    topo::KernelId requester;
    bool ok;
};

// --- Coherence batching & fault-around prefetch (DESIGN.md §10) -------------

/// What a ranged invalidation asks the holder to do with each page.
enum class InvalidateRangeOp : std::uint32_t {
    kDrop = 0,      ///< clear the PTE and free the frame (munmap)
    kDowngrade = 1, ///< strip the write bit only (Exclusive -> Shared)
};

/// One ranged invalidation RPC: `count` VPN offsets relative to base_vpn,
/// all of whose busy bits the origin already claimed. An explicit offset
/// list — not a [start, end) span — because the holder may hold in-range
/// pages whose busy bits belong to *other* transactions; only pages the
/// origin claimed may be touched. Truncated on the wire to the offsets
/// actually carried (see wire_bytes).
struct PageInvalidateRangeReq {
    static constexpr std::uint32_t kMaxPages = 512;
    Pid pid;
    InvalidateRangeOp op;
    std::uint32_t count;
    std::uint64_t base_vpn;
    std::array<std::uint32_t, kMaxPages> vpn_offset;
};

struct PageInvalidateRangeResp {
    std::uint32_t touched; ///< pages the holder actually dropped/downgraded
};

/// A remote read fault upgraded by the stride detector: service `va`
/// exactly like kPageFault, then opportunistically push up to window-1
/// following pages (kPagePush) whose busy bits can be claimed immediately.
struct PageFaultBatchReq {
    Pid pid;
    mem::Vaddr va;        ///< the faulting page
    std::uint32_t access; ///< mem::Prot bits (read streams only in practice)
    topo::KernelId requester;
    std::uint32_t window; ///< total pages including the faulting one, >= 2
    /// Nonzero: the requester is in its post-migration boost window
    /// (DESIGN.md §15). The home may grant past kFaultAroundWindow (up to
    /// kMaxWorksetAround), moves the window owned (kWorksetPush) and
    /// pushes before it replies. Occupies what was a padding hole, so the
    /// wire size (and the modeled copy cost of every existing batch fault)
    /// is unchanged.
    std::uint32_t workset;
};
static_assert(sizeof(PageFaultBatchReq) == 32,
              "workset flag must fill the padding hole");

/// The faulting page's result plus how many window pages the home claimed
/// to push (after the reply when streaming, before it when boosted). The
/// data array sits last (inside `first`) so dataless outcomes truncate like
/// a plain PageFaultResp.
struct PageFaultBatchResp {
    std::uint32_t extra_granted;
    PageFaultResp first;
};

/// Home or remote owner -> requester: one pushed page. The requester
/// installs it and confirms with kPageInstalled (the normal third leg) to
/// `home`, so the directory commits or rolls back the parked transaction
/// exactly as for a demand fault. Pages the home holds itself ship from the
/// home; a remote owner's pages are forwarded by that owner straight to the
/// requester (kPageSurrender), so each page crosses the fabric once. A
/// replica push maps read-only; an ownership push (`exclusive`, workset
/// pushes only — DESIGN.md §15) maps writable, because every other copy was
/// already invalidated.
struct PagePushMsg {
    Pid pid;
    mem::Vaddr va;
    /// The page's directory home, which the confirm goes to. Occupies the
    /// byte of a data_included flag every push set, so the wire size (and
    /// every push's modeled copy cost) is unchanged.
    std::uint8_t home;
    /// Ownership push: the directory parks Exclusive at the requester.
    bool exclusive;
    std::uint8_t source; ///< kernel that supplied the bytes (affinity)
    std::array<std::byte, mem::kPageSize> data;
};
static_assert(offsetof(PagePushMsg, data) == 19, "push wire size must not change");

/// What a holder does with each page of a kPageSurrender: the four ways
/// a home asks for a copy (DESIGN.md §14, §15).
enum class SurrenderMode : std::uint8_t {
    kReplica = 0,   ///< Shared copy: ship the bytes, keep the copy
    kDowngrade = 1, ///< Exclusive, read: strip write, ship the bytes, keep the copy
    kOwnership = 2, ///< revoke the copy and ship its bytes
    kDrop = 3,      ///< revoke the copy and ship nothing (a write's other victims)
};

/// Home -> holder (kPageSurrender, leaf): the one per-page request a home
/// sends a holder. The home claimed these pages for `requester` and parked
/// their pending states. The holder captures the whole batch under one
/// mmap write guard (one generation bump, one shootdown) and ships each
/// page to where its bytes are wanted:
///   - requester == the sending home (one page): back in the reply;
///   - reply_to.ticket set (one page): as the requester's fault reply, a
///     forwarded demand fault (DESIGN.md §14);
///   - otherwise as a one-page kWorksetPush (`workset`) or kPagePush.
/// It replies with the pages it shipped (a kDrop page "ships" when its copy
/// was present and is gone). A holder that finds the requester dead keeps
/// its copies and ships nothing. Truncated on the wire to the VPNs carried.
struct PageSurrenderReq {
    static constexpr std::uint32_t kMaxPages = 32;
    Pid pid;
    topo::KernelId requester;
    std::uint32_t workset; ///< nonzero: ship as kWorksetPush, else kPagePush
    std::uint32_t count;
    FaultReplyTo reply_to;
    std::array<SurrenderMode, kMaxPages> mode;
    std::array<std::uint64_t, kMaxPages> vpn;
};

inline std::size_t wire_bytes(const PageSurrenderReq& r) {
    return offsetof(PageSurrenderReq, vpn) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint64_t);
}

/// The page sits last so a reply without bytes truncates to its flags.
struct PageSurrenderResp {
    std::uint32_t shipped; ///< bit i: vpn[i] was shipped
    bool data_included;    ///< `data` holds the page (the asking home wanted it)
    std::array<std::byte, mem::kPageSize> data;
};
static_assert(PageSurrenderReq::kMaxPages <= 32, "shipped is a 32-bit mask");

// --- Size-on-wire helpers ---------------------------------------------------
//
// Replies whose trailing `data` array is only meaningful when a flag says
// so are truncated on the wire to the fields actually carried: the structs
// keep their full in-memory size, only hdr.payload_size (and with it
// msg.bytes and the modeled copy cost) shrinks. Receivers must use
// Message::payload_prefix_as and gate on the flags.

static_assert(offsetof(PageFaultResp, data) == 8,
              "dataless PageFaultResp wire size");
inline std::size_t wire_bytes(const PageFaultResp& r) {
    return offsetof(PageFaultResp, data) + (r.data_included ? mem::kPageSize : 0);
}
static_assert(offsetof(PageSurrenderResp, data) == 5,
              "dataless PageSurrenderResp wire size");
inline std::size_t wire_bytes(const PageSurrenderResp& r) {
    return offsetof(PageSurrenderResp, data) + (r.data_included ? mem::kPageSize : 0);
}
/// Every push carries its page; only the struct's tail padding is not sent.
inline std::size_t wire_bytes(const PagePushMsg&) {
    return offsetof(PagePushMsg, data) + mem::kPageSize;
}
inline std::size_t wire_bytes(const PageFaultBatchResp& r) {
    return offsetof(PageFaultBatchResp, first) + wire_bytes(r.first);
}
inline std::size_t wire_bytes(const PageInvalidateRangeReq& r) {
    return offsetof(PageInvalidateRangeReq, vpn_offset) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint32_t);
}

// --- Distributed futex (kFutexWait / kFutexWake / kFutexGrantBatch) --------

struct FutexWaitReq {
    Pid pid;
    Tid tid;
    mem::Vaddr uaddr;
    std::uint32_t val;
    /// The registering convoy head's kernel (DESIGN §13): the origin queues
    /// one aggregate entry per (pid, uaddr, kernel), not one per waiter.
    topo::KernelId waiter_kernel;
    std::uint32_t count = 0;  ///< local convoy size at send time
    std::uint64_t epoch = 0;  ///< sender's convoy clock at send
};

struct FutexWaitResp {
    std::int32_t result; ///< 0 = queued, EAGAIN = value mismatch
    /// Owner-affinity hint: the kernel last granted this word (-1 = none).
    /// Waiter kernels fold it into Task::fault_from so the balance affinity
    /// policy converges contenders onto the grant holder.
    topo::KernelId owner = -1;
};

struct FutexWakeReq {
    Pid pid;
    mem::Vaddr uaddr;
    std::uint32_t max_wake;
};

struct FutexWakeResp {
    std::uint32_t woken;
};

/// Origin -> kernel: wake up to `n` waiters from your local convoy for
/// (pid, uaddr). Fanned out with rpc_scatter so a wake spread over many
/// kernels costs one round trip. The reply's `remaining` is the kernel's
/// authoritative convoy size, reconciling the origin's aggregate count.
struct FutexGrantBatchReq {
    Pid pid;
    mem::Vaddr uaddr;
    std::uint32_t n;
};

struct FutexGrantBatchResp {
    std::uint32_t woken;     ///< waiters actually woken (<= n)
    std::uint32_t remaining; ///< convoy size after the grant (authoritative)
    std::uint64_t epoch;     ///< convoy clock at reply; origin applies newest
};

/// Kernel -> origin (oneway): the local convoy for (pid, uaddr) drained
/// (last waiter timed out, was handed the lock locally, or evacuated).
/// Epoch-guarded like grant replies: a deregister that loses the race with
/// a newer registration is ignored.
struct FutexDeregisterMsg {
    Pid pid;
    mem::Vaddr uaddr;
    topo::KernelId kernel;
    std::uint64_t epoch;
};

// --- Thread groups & migration ---------------------------------------------

struct CloneReq {
    Pid pid;
    Tid tid;
    topo::KernelId origin;
};

struct CloneResp {
    bool ok;
};

struct MigrateReq {
    Pid pid;
    Tid tid;
    topo::KernelId origin;
    topo::KernelId from;
    task::ThreadContext ctx; ///< the architectural state being shipped
    /// Pre-copy working set (DESIGN.md §15): the source's top-K hot VPNs,
    /// piggybacked on the checkpoint so the destination can pull them in one
    /// scatter round instead of demand-faulting each. Truncated on the wire
    /// (see wire_bytes) to the VPNs that ship, so a thread with a cold
    /// tracker costs exactly the bare context.
    std::uint32_t workset_count;
    std::array<std::uint64_t, task::kMaxWorkset> workset_vpn;
};

/// Cold-tracker wire size: ends right after ctx.
static_assert(offsetof(MigrateReq, workset_count) ==
                  sizeof(Pid) + sizeof(Tid) + 2 * sizeof(topo::KernelId) +
                      sizeof(task::ThreadContext),
              "workset tail must start where the old MigrateReq ended");

inline std::size_t wire_bytes(const MigrateReq& r) {
    if (r.workset_count == 0) return offsetof(MigrateReq, workset_count);
    return offsetof(MigrateReq, workset_vpn) +
           static_cast<std::size_t>(r.workset_count) * sizeof(std::uint64_t);
}

struct MigrateResp {
    bool ok;
};

/// Destination -> home (kWorksetPull, blocking): after a migrated thread
/// resumes, it asks each home for the shipped hot pages that home serves.
/// The home try-claims what it can (the claim order at the top of
/// core/page_owner.cpp), pushes the pages it holds itself as kWorksetPush,
/// has each remote owner forward its pages (one kPageSurrender per owner),
/// and replies once every owner has answered. Truncated on the wire to the
/// VPNs actually carried.
struct WorksetPullReq {
    Pid pid;
    topo::KernelId requester;
    std::uint32_t count;
    std::array<std::uint64_t, task::kMaxWorkset> vpn;
};

inline std::size_t wire_bytes(const WorksetPullReq& r) {
    return offsetof(WorksetPullReq, vpn) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint64_t);
}

struct WorksetPullResp {
    std::uint32_t granted; ///< pushes already sent, by the home or an owner
};

enum class GroupUpdateKind : std::uint32_t { kJoin = 0, kLocation };

struct GroupUpdateMsg {
    Pid pid;
    Tid tid;
    GroupUpdateKind kind;
    topo::KernelId where;
};

struct TaskExitMsg {
    Pid pid;
    Tid tid;
    std::int32_t status;
};

// --- Single-system image ----------------------------------------------------

struct CensusReq {
    Pid pid; ///< 0 = count all processes
};

struct CensusResp {
    std::uint32_t ntasks;
    std::uint32_t nrunnable;
    std::uint32_t idle_cores;
};

// --- Load balancing (kLoadGossip / kSteal) ---------------------------------

/// Periodic one-way load broadcast from a balancer tick. Receivers fold it
/// into the age-stamped census table in core::Ssi.
struct LoadGossipMsg {
    topo::KernelId sender;
    std::uint32_t ntasks;     ///< live tasks (excludes shadows/exited)
    std::uint32_t nrunnable;  ///< run-queue depth + running
    std::uint32_t idle_cores;
    Nanos stamp;              ///< sender's virtual time at emission
    // Hottest contended futex word served by this sender's origin-side
    // table (owner-affinity census, DESIGN §13). hot_owner -1 = none.
    // Receivers fold it into the core::Ssi hot-word table so the affinity
    // policy can steer contenders toward the grant holder.
    Pid hot_pid = 0;
    mem::Vaddr hot_uaddr = 0;
    topo::KernelId hot_owner = -1;
    std::uint32_t hot_heat = 0;
};

/// Thief -> victim: hand me one queued (never running) thread. The victim's
/// leaf handler detaches a stealable task from its run queue and unparks it;
/// the task then ships itself over the normal kMigrate path.
struct StealReq {
    topo::KernelId thief;
    Pid pid; ///< 0 = any process
};

struct StealResp {
    bool granted;
    Pid pid;
    Tid tid;
};

/// One row of the machine-wide task listing (SSI "ps").
struct TaskInfo {
    Tid tid;
    Pid pid;
    topo::KernelId kernel;
    std::uint32_t state; ///< task::TaskState
};

struct TaskListResp {
    static constexpr std::uint32_t kMaxEntries = 120;
    std::uint32_t count;    ///< entries filled
    std::uint32_t truncated; ///< nonzero if more existed than fit
    std::array<TaskInfo, kMaxEntries> entries;
};

// --- Elastic membership (rko/elastic; kMembershipUpdate / kElasticEvict) ----

/// What happened to `subject`: declared dead by the failure detector,
/// parted voluntarily after a drain, or (re)joined the cluster.
enum class MembershipEvent : std::uint32_t { kDead = 0, kParted, kJoin };

struct MembershipUpdateMsg {
    topo::KernelId subject;
    MembershipEvent event;
    topo::KernelId reporter; ///< who observed/initiated it (dedup + tracing)
};

/// Drain, final leg: a parting holder asks the origin to evict every page
/// copy it still holds for `pid` (pull dirty bytes home, strip the holder
/// from the directory) so the kernel can leave with empty page tables.
struct ElasticEvictReq {
    Pid pid;
    topo::KernelId holder;
};

struct ElasticEvictResp {
    std::uint32_t evicted; ///< directory entries the origin stripped
};

// --- Sharded directory homes (rko/home; kHomeRangeOp / kHomeRebuild) --------

/// Which destructive sweep a home should run over its local directory
/// slice (mirrors PageOwner::revoke/downgrade/sequester_range).
enum class HomeRangeKind : std::uint32_t { kRevoke = 0, kDowngrade, kSequester };

/// Origin -> every other home the map names, after a destructive VMA op's
/// replica broadcast: sweep your directory entries in [start, end). With
/// one shard the origin is the only home, so none is sent.
struct HomeRangeOpReq {
    Pid pid;
    HomeRangeKind kind;
    mem::Vaddr start;
    mem::Vaddr end;
};

struct HomeRangeOpResp {
    std::uint32_t touched; ///< directory entries this home swept
};

/// Failover census (rko/home): the kernel inheriting a dead owner's home
/// shard asks each survivor which in-shard pages it still maps. Cursor-
/// chunked: resume_vpn is 0 on the first call, then the reply's next_vpn.
struct HomeRebuildReq {
    Pid pid;
    topo::KernelId dead;      ///< departed owner whose shard is moving
    std::uint32_t shard;      ///< home-map shard being rebuilt
    std::uint64_t resume_vpn; ///< scan cursor (first vpn to consider)
};

/// One census chunk: packed (vpn << 1 | writable) words, truncated on the
/// wire to the entries actually carried (see wire_bytes).
struct HomeRebuildResp {
    static constexpr std::uint32_t kMaxEntries = 256;
    std::uint32_t ready;      ///< zero: peer has not applied the membership
                              ///< event yet — retry after a beat
    std::uint32_t count;
    std::uint32_t has_more;   ///< nonzero: call again with resume_vpn=next_vpn
    std::uint64_t next_vpn;
    std::array<std::uint64_t, kMaxEntries> entry;
};

inline std::size_t wire_bytes(const HomeRebuildResp& r) {
    return offsetof(HomeRebuildResp, entry) +
           static_cast<std::size_t>(r.count) * sizeof(std::uint64_t);
}

} // namespace rko::core
