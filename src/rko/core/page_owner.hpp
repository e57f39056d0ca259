// Page-granularity ownership protocol (paper §IV-C).
//
// MSI-style, home-based: the process's origin kernel keeps a directory
// entry per touched page recording who holds valid copies. Read faults
// replicate (Shared); write faults invalidate every other copy and move
// exclusive ownership to the writer. The result is sequential consistency
// at page granularity across kernels, which is what the hardware gives a
// thread group on one kernel.
//
// Transactions at the page's home serialize per page with a busy bit and
// re-validate against the site's vma_epoch so racing munmaps cannot
// resurrect dead pages. The lock and claim order every path obeys is
// stated once, at the top of page_owner.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rko/base/stats.hpp"
#include "rko/core/process.hpp"
#include "rko/mem/mmu.hpp"
#include "rko/core/wire.hpp"
#include "rko/msg/node.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::kernel {
class Kernel;
}

namespace rko::core {

class PageOwner {
public:
    /// Fault-around window (pages, including the faulting one): the
    /// requester asks for at most this many and the home clips the
    /// wire-supplied window to it.
    static constexpr std::uint32_t kFaultAroundWindow = 8;
    /// Consecutive +1-page faults a thread must string together before a
    /// read fault is upgraded to a batched transaction.
    static constexpr std::uint32_t kPrefetchMinRun = 3;
    /// Window cap for a post-migration boosted batch (DESIGN.md §15) —
    /// wider than kFaultAroundWindow because the requester just lost its
    /// whole address space.
    static constexpr std::uint32_t kMaxWorksetAround = 32;
    /// How long (virtual ns) after arrival a migrated thread keeps its
    /// post-copy boost: remote read faults batch from the first touch
    /// (min-run 1) with the widened window.
    static constexpr Nanos kWorksetBoostNs = 2'000'000;

    explicit PageOwner(kernel::Kernel& k);

    /// Registers kPageFault / kPageFaultBatch / kHomeRangeOp / kWorksetPull
    /// (blocking), kPageSurrender / kPageInvalidateRange / kPageInstalled /
    /// kHomeRebuild (leaf), and kPagePush + kWorksetPush (leaf, one
    /// handler: on_page_push).
    void install();

    /// Protocol ablation: when false, read faults also take exclusive
    /// ownership (no Shared state — pages migrate on any fault, the
    /// simplest DSM). Default true: MSI with reader replication.
    void set_read_replication(bool enabled) { read_replication_ = enabled; }
    bool read_replication() const { return read_replication_; }

    /// Post-resume pre-copy pull (runs on the migrated guest's actor):
    /// drains t.pending_workset in ONE rpc_scatter of kWorksetPull rounds,
    /// one per home; when it returns every granted page's push has been
    /// sent here, by its home or straight from its remote owner (its
    /// dispatch and install may still be in flight). Pages homed here, and
    /// pulls to homes that died mid-round, simply demand-fault later.
    void workset_prefault(ProcessSite& site, task::Task& t);

    /// TEST-ONLY fault injection: write transactions skip one victim's
    /// invalidation, planting exactly the stale-copy coherence bug the
    /// rko/check pages auditors exist to catch (rko_explore --inject and
    /// the checker self-tests). Never enable outside those harnesses.
    void set_inject_lost_invalidate(bool on) { inject_lost_invalidate_ = on; }

    /// Fault entry after VMA validation: obtain `access` rights to `page`
    /// for this kernel and map it locally. Runs on the faulting task.
    /// When `t` is given, the fault is attributed to the kernel that
    /// supplied the bytes (Task::fault_from) for the balancer's affinity
    /// policy.
    mem::Mmu::FaultResult acquire(ProcessSite& site, const mem::Vma& vma,
                                  mem::Vaddr page, std::uint32_t access,
                                  task::Task* t = nullptr);

    /// Ensures this (origin) kernel holds a readable copy of `page` —
    /// used by the distributed futex to peek at user words. A missing copy
    /// is read-faulted in with acquire. Returns the host pointer to the
    /// local frame, or null if unmapped/SEGV.
    std::byte* ensure_readable(ProcessSite& site, mem::Vaddr page);

    /// Home-side munmap support: invalidates every copy of every page in
    /// [start, end) this slice names and erases the entries (the data is
    /// dead). Returns pages revoked. Caller holds the vma_op_lock.
    std::uint32_t revoke_range(ProcessSite& site, mem::Vaddr start, mem::Vaddr end);

    /// Home-side mprotect support when write permission is removed:
    /// strips the write bit from every holder's PTE and demotes Exclusive
    /// entries to Shared. Data is preserved in place.
    std::uint32_t downgrade_range(ProcessSite& site, mem::Vaddr start, mem::Vaddr end);

    /// Home-side mprotect support for PROT_NONE: pulls every page's bytes
    /// home to an origin frame mapped with no access, so the data survives
    /// a later mprotect back to accessibility.
    std::uint32_t sequester_range(ProcessSite& site, mem::Vaddr start, mem::Vaddr end);

    // --- Elastic membership hooks (rko/elastic; home-side) ---

    /// Strips a DEAD kernel from every directory entry (its leases expired;
    /// no messages — the corpse cannot answer). Surviving sharers keep the
    /// data; pages whose only copy died are erased and refault as zero-fill.
    /// Pending installs the dead requester never confirmed are rolled back.
    /// Entries busy under a live transaction are skipped — the transaction
    /// itself routes around dead peers. Returns {entries stripped, sole-copy
    /// pages lost}.
    std::pair<std::uint32_t, std::uint32_t> rehome_dead(ProcessSite& site,
                                                        topo::KernelId dead);

    /// Drain support: evicts every page copy a LIVE, parting `holder` still
    /// holds (kElasticEvict handler). Sole copies are pulled home into
    /// origin frames (a one-page kOwnership surrender each); shared copies
    /// get a ranged dataless drop. Runs the full claim/scatter/commit shape, so it is
    /// safe against concurrent faults. Returns entries stripped.
    std::uint32_t evict_holder(ProcessSite& site, topo::KernelId holder);

    // --- Directory homes (rko/home) ---

    /// The kernel homing `page`'s directory entry, as the home map names
    /// it: the origin with one shard, else the owner of the page's shard.
    topo::KernelId home_of(ProcessSite& site, mem::Vaddr page) const;
    /// Whether this kernel may hold a slice of `site`'s directory.
    bool may_home(ProcessSite& site) const;

    /// Destructive-op fan-out (origin side, vma_op_lock held, AFTER the
    /// replica broadcast): runs the matching ranged sweep on the local
    /// directory slice and scatters kHomeRangeOp to every other home the
    /// map names (none with one shard). Returns total entries swept.
    std::uint32_t home_range_fanout(ProcessSite& site, HomeRangeKind kind,
                                    mem::Vaddr start, mem::Vaddr end);

    /// Failover (elastic reaper actor): `shard` just moved from `dead` to
    /// this kernel. Pulls a PTE census from every live peer (kHomeRebuild)
    /// and installs the reconstructed directory entries locally. The shard
    /// must already be marked rebuilding (faults answer kRetry meanwhile).
    /// Returns entries reconstructed.
    std::uint32_t rebuild_home_shard(ProcessSite& site, int shard,
                                     topo::KernelId dead);

    /// Directory transactions this kernel served (home.msgs metric): the
    /// per-kernel share shows the origin bottleneck dissolving as shards
    /// spread the protocol load.
    std::uint64_t home_msgs() const { return home_msgs_.value; }

    std::uint64_t local_faults() const { return local_faults_.value; }
    std::uint64_t remote_faults() const { return remote_faults_.value; }
    std::uint64_t invalidations() const { return invalidations_.value; }
    std::uint64_t fetches() const { return fetches_.value; }
    /// Remote faults this (holder) kernel answered for their home: the
    /// three-leg faults, whose bytes crossed the fabric once.
    std::uint64_t forwarded() const { return forwarded_.value; }
    /// Pages pushed by this (home) kernel's streaming fault-around windows.
    std::uint64_t prefetch_issued() const { return prefetch_issued_.value; }
    /// Pushed pages this (requester) kernel installed / failed to install.
    std::uint64_t prefetch_hit() const { return prefetch_hit_.value; }
    std::uint64_t prefetch_wasted() const { return prefetch_wasted_.value; }
    /// kPageInvalidateRange RPCs issued by the ranged revoke/downgrade/
    /// sequester paths (each replaces up to kMaxPages per-page round trips).
    std::uint64_t range_rpcs() const { return range_rpcs_.value; }
    const base::Histogram& remote_fault_latency() const { return remote_latency_; }
    /// Working-set pages this (home) kernel pushed to migration
    /// destinations (pre-copy pulls + boosted batches).
    std::uint64_t workset_pushed() const { return workset_pushed_.value; }
    /// Workset pushes this (destination) kernel installed / failed to
    /// install.
    std::uint64_t workset_hit() const { return workset_hit_.value; }
    std::uint64_t workset_wasted() const { return workset_wasted_.value; }

private:
    /// A remote fault's data leg handed to the one kernel that holds the
    /// bytes (DESIGN.md §14, three-leg faults).
    struct Forward {
        topo::KernelId holder = -1; ///< -1: the home answers the requester
        SurrenderMode mode = SurrenderMode::kReplica; ///< never kDrop
        std::uint64_t token = 0; ///< the pending's `surrendering` token
    };

    /// The heart of the protocol; runs at the origin (task or kworker).
    /// On kOk the directory entry is left BUSY with the post-transaction
    /// state parked in the shard's pending map; the requester must call
    /// commit_install (locally or via kPageInstalled) after installing its
    /// PTE. This three-phase shape makes directory state and requester PTEs
    /// change atomically with respect to other transactions. With `fwd`
    /// (remote requesters only), a read of a page held elsewhere and a
    /// write whose only remote victim supplies the bytes are not served
    /// here: the pending is parked flagged `surrendering`, `fwd` names the
    /// holder, and the caller hands it the answer with forward_fault.
    /// Every copy the home asks for goes through capture_pages: its own
    /// in place, a remote holder's as a one-page kPageSurrender whose reply
    /// carries the bytes. Frames the home revoked are appended to `freed`
    /// for the caller to free after its reply.
    FaultStatus origin_transaction(ProcessSite& site, mem::Vaddr page,
                                   std::uint32_t access, topo::KernelId requester,
                                   PageFaultResp& out, std::vector<mem::Paddr>& freed,
                                   Forward* fwd = nullptr);
    /// Sends the holder `fwd` names a one-page kPageSurrender carrying the
    /// requester's ticket, and resolves the pending once it answers. Returns true when the
    /// requester got its answer from the holder; false when the holder
    /// shipped nothing (its copy was gone, it saw the requester dead, or it
    /// died first): the entry is back to its snapshot, minus a dead holder,
    /// and `out` is a kRetry for the caller to send.
    bool forward_fault(ProcessSite& site, mem::Vaddr page, topo::KernelId requester,
                       const Forward& fwd, const FaultReplyTo& to, PageFaultResp& out);
    /// A holder answered (or died before answering, `lost`) for a page its
    /// surrendering transaction `token` flagged. Returns false, changing
    /// nothing, when the requester's confirm already committed the page.
    /// Otherwise the flag drops: a shipped page then waits for its confirm
    /// like any other (or is abandoned here if the requester was declared
    /// dead meanwhile: its reap skipped the flagged pending), and an
    /// unshipped one returns to its snapshot, minus `lost`.
    bool resolve_surrender(ProcessSite& site, std::uint64_t vpn, std::uint64_t token,
                           bool shipped, topo::KernelId lost, topo::KernelId requester);

    /// Commits (ok) or rolls back (!ok: requester removed from holders) the
    /// pending state and releases the busy bit.
    void commit_install(ProcessSite& site, mem::Vaddr page, topo::KernelId requester,
                        bool ok);

    /// Tolerant rollback of a pending install: no-op (false) unless a
    /// pending for `page` exists AND is waiting on `requester`. Idempotent —
    /// the reaper and a kworker's dead-requester check may both try.
    bool abandon_pending(ProcessSite& site, mem::Vaddr page,
                         topo::KernelId requester);

    /// Requester-side: installs the transaction result into the local
    /// address space. Returns false if the local VMA vanished meanwhile.
    bool install_locally(ProcessSite& site, const mem::Vma& vma, mem::Vaddr page,
                         std::uint32_t access, const PageFaultResp& resp);

    // Batched local holder ops: N PTE changes share one TLB-generation bump
    // and one modeled shootdown instead of paying both per page. Return the
    // number of pages actually present.
    std::uint32_t local_drop_range(ProcessSite& site,
                                   const std::vector<std::uint64_t>& vpns);
    std::uint32_t local_downgrade_range(ProcessSite& site,
                                        const std::vector<std::uint64_t>& vpns);

    /// Chunks each holder's (sorted) VPN list into kPageInvalidateRange
    /// requests and posts them all in ONE rpc_scatter — every holder works
    /// concurrently. Returns the machine-wide pages touched.
    std::uint32_t scatter_ranged(
        ProcessSite& site,
        const std::array<std::vector<std::uint64_t>, topo::kMaxKernels>& by_holder,
        InvalidateRangeOp op);

    // The page-push pipeline (home side) — fault-around windows, working-set
    // pulls and boosted batches all run these two steps. claim_pages
    // validates each VPN against this home's VMA tree under one MmapReadGuard
    // and try-claims the busy bits of the pages it may push (skipping
    // absent, busy, requester-held and not-homed-here entries). push_pages
    // then moves every claimed page to the requester: the pages this home
    // holds are captured in one batch (capture_pages) and pushed from here;
    // each remote owner gets ONE kPageSurrender for its pages, captures
    // them with the same capture_pages and pushes them straight to the
    // requester. Every push parks the ordinary pending state for the
    // requester's confirm to commit. With `owned`, an Exclusive page in a
    // writable VMA moves OWNED (its old holder's copy is revoked) and ships
    // as kWorksetPush; otherwise every page ships as a read-only replica
    // (kPagePush), an Exclusive holder being downgraded like a read fault
    // would. Frames this home revoked are appended to `freed` for the
    // caller to free after its reply.
    std::vector<mem::Vaddr> claim_pages(ProcessSite& site,
                                        std::span<const std::uint64_t> vpns,
                                        topo::KernelId requester);
    std::uint32_t push_pages(ProcessSite& site, const std::vector<mem::Vaddr>& pages,
                             topo::KernelId requester, bool owned,
                             std::vector<mem::Paddr>* freed);

    /// One page of a batched capture: what to do with this kernel's copy
    /// and where its bytes go.
    struct Capture {
        mem::Vaddr page = 0;
        SurrenderMode mode = SurrenderMode::kReplica;
        std::byte* out = nullptr; ///< unused by kDrop
        bool captured = false; ///< the copy was present; its bytes are in *out
        mem::Pte revoked{};    ///< kOwnership / kDrop: the cleared PTE (frame not freed)
    };
    /// Captures this kernel's copies of a batch of pages under ONE mmap
    /// write hold: ownership and drop revoke the PTE, downgrade strips
    /// write, replica leaves it; one generation bump, then the bytes are
    /// copied out. The accumulated copy charge (kDrop copies nothing) and
    /// the one modeled shootdown come after the release (rule 6 in
    /// page_owner.cpp).
    void capture_pages(ProcessSite& site, std::span<Capture> batch);
    /// Captures `batch` (capture_pages) and pushes each captured page to
    /// `requester` as kWorksetPush (`workset`) or kPagePush, its confirm
    /// addressed to `home`; `before_send(i)`, if set, runs right before
    /// page i is sent. Pages are never sent to a requester seen dead: their
    /// copies are restored instead (a revoked PTE re-mapped over its own
    /// frame). Returns the mask of pages shipped and
    /// appends their revoked frames to `freed`, for the caller to free after
    /// its reply. The home runs it for the pages it holds, a holder for the
    /// pages it surrenders. Nothing is sent for a kDrop page, nor when the
    /// requester is the asking `home` itself: that page's bytes land in the
    /// `out` the caller preset, for its reply. With `reply`, the batch is
    /// one forwarded demand fault's page and it ships as the reply to the
    /// requester's fault RPC instead.
    std::uint32_t ship_pages(ProcessSite& site, std::span<Capture> batch,
                             topo::KernelId requester, topo::KernelId home, bool workset,
                             const std::function<void(std::size_t)>& before_send,
                             std::vector<mem::Paddr>* freed,
                             const FaultReplyTo* reply = nullptr);

    void on_page_fault(msg::Node& node, msg::MessagePtr m);
    void on_home_range_op(msg::Node& node, msg::MessagePtr m);
    void on_home_rebuild(msg::Node& node, msg::MessagePtr m);
    /// Parks until no home shard of `site` is mid census rebuild (elastic).
    void await_home_rebuilds(ProcessSite& site);
    void on_page_fault_batch(msg::Node& node, msg::MessagePtr m);
    void on_page_invalidate_range(msg::Node& node, msg::MessagePtr m);
    void on_page_installed(msg::Node& node, msg::MessagePtr m);
    /// kPagePush and kWorksetPush: install the pushed page, ALWAYS confirm,
    /// and count the outcome under the wire type's hit/wasted pair.
    void on_page_push(msg::Node& node, msg::MessagePtr m);
    /// Holder side of every home request (PageSurrenderReq): capture, ship
    /// each page where the request says, reply with the mask of pages
    /// shipped (and the page itself when the asking home wants the bytes).
    void on_page_surrender(msg::Node& node, msg::MessagePtr m);
    void on_workset_pull(msg::Node& node, msg::MessagePtr m);

    kernel::Kernel& k_;
    bool read_replication_ = true;
    bool inject_lost_invalidate_ = false;
    std::uint64_t next_surrender_token_ = 0;
    // Registry-backed ("pages.*" in the kernel's MetricsRegistry).
    trace::Counter& local_faults_;
    trace::Counter& remote_faults_;
    trace::Counter& invalidations_;
    trace::Counter& fetches_;
    trace::Counter& forwarded_;
    trace::Counter& prefetch_issued_;
    trace::Counter& prefetch_hit_;
    trace::Counter& prefetch_wasted_;
    trace::Counter& range_rpcs_;
    trace::Counter& home_msgs_;
    trace::Counter& workset_pushed_;
    trace::Counter& workset_hit_;
    trace::Counter& workset_wasted_;
    base::Histogram& remote_latency_;
};

} // namespace rko::core
