// Page ownership: the home-side directory transactions, the requester-side
// installs, the ranged sweeps and the page-push pipeline (DESIGN.md §1, §10,
// §14, §15).
//
// LOCK AND CLAIM ORDER. Every path in this file obeys these five rules;
// the comments below point here instead of restating them.
//
//   1. A directory shard lock is never held across an await (an RPC, a
//      sleep, a busy-bit wait). It guards one no-yield step on the entry
//      map; protocol work runs under the entry's busy bit instead.
//   2. mmap guard, then shard lock. A path that needs both takes the
//      site's mmap lock first and the shard lock inside it, never the
//      other way round.
//   3. A fault transaction holds ONE busy bit and never waits for a
//      second; its protocol work is RPCs to leaf handlers, which always
//      complete.
//   4. Multi-page pushes (fault-around windows, working-set pulls, boosted
//      batches) only TRY-claim: an absent, busy or requester-held entry
//      is skipped, never waited for.
//   5. The ranged claim-all paths (revoke/downgrade/sequester_range,
//      evict_holder) claim many busy bits before releasing any; they
//      serialize among themselves on the site's vma_op_lock.
//
// So every busy-bit waiter waits on a holder that will release without
// waiting itself (rules 3, 4) or on a claim-all path that holds the
// vma_op_lock (rule 5): the wait graph has no cycle.

#include "rko/core/page_owner.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "rko/base/log.hpp"
#include "rko/check/gate.hpp"
#include "rko/core/vma_server.hpp"
#include "rko/home/home.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/trace/trace.hpp"

namespace rko::core {

namespace {

struct ReadGuard {
    explicit ReadGuard(sim::RwLock& l) : lock(l) { lock.lock_shared(); }
    ~ReadGuard() { lock.unlock_shared(); }
    sim::RwLock& lock;
};
struct WriteGuard {
    explicit WriteGuard(sim::RwLock& l) : lock(l) { lock.lock(); }
    ~WriteGuard() { lock.unlock(); }
    sim::RwLock& lock;
};

std::uint32_t effective_prot(std::uint32_t vma_prot, bool writable) {
    return writable ? vma_prot : (vma_prot & ~mem::kProtWrite);
}

/// Removes `k` from the entry's holder set. Returns false when no holder
/// remains: the caller erases the entry (the data is gone).
bool drop_holder(PageDirEntry& entry, topo::KernelId k) {
    if (entry.state == PageDirEntry::State::kExclusive) return entry.owner != k;
    entry.sharers &= ~topo::kbit(k);
    return entry.sharers != 0;
}

/// Shared tail of commit_install/abandon_pending: applies `updated` (ok) or
/// removes the requester from the holder set (!ok: it abandoned the install
/// — racing munmap, or it died). Shard lock held.
void apply_commit_locked(ProcessSite::DirShard& shard, std::uint64_t vpn,
                         PageDirEntry updated, topo::KernelId requester, bool ok) {
    auto it = shard.entries.find(vpn);
    RKO_ASSERT(it != shard.entries.end() && it->second.busy);
    // updated.busy is already false
    if (ok || drop_holder(updated, requester)) {
        it->second = updated;
    } else {
        shard.entries.erase(it);
    }
}

} // namespace

PageOwner::PageOwner(kernel::Kernel& k)
    : k_(k),
      local_faults_(k.metrics().counter("pages.local_faults")),
      remote_faults_(k.metrics().counter("pages.remote_faults")),
      invalidations_(k.metrics().counter("pages.invalidations")),
      fetches_(k.metrics().counter("pages.fetches")),
      prefetch_issued_(k.metrics().counter("pages.prefetch.issued")),
      prefetch_hit_(k.metrics().counter("pages.prefetch.hit")),
      prefetch_wasted_(k.metrics().counter("pages.prefetch.wasted")),
      range_rpcs_(k.metrics().counter("pages.range_rpcs")),
      home_msgs_(k.metrics().counter("home.msgs")),
      workset_pushed_(k.metrics().counter("migration.workset.pushed")),
      workset_hit_(k.metrics().counter("migration.workset.hit")),
      workset_wasted_(k.metrics().counter("migration.workset.wasted")),
      remote_latency_(k.metrics().histogram("pages.remote_fault_ns")) {}

topo::KernelId PageOwner::home_of(ProcessSite& site, mem::Vaddr page) const {
    return k_.home_map().home_of(site.pid(), site.origin(), mem::vpn_of(page));
}

bool PageOwner::may_home(ProcessSite& site) const {
    return k_.home_map().may_home(k_.id(), site.origin());
}

void PageOwner::await_home_rebuilds(ProcessSite& site) {
    for (int s = 0; s < k_.home_map().shards(); ++s) {
        while (site.home_rebuilding(s)) k_.engine().current().sleep_for(1000);
    }
}

void PageOwner::install() {
    k_.node().register_handler(
        msg::MsgType::kPageFault, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_fault(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kPageFaultBatch, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_fault_batch(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kPageFetch, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_fetch(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kPageInvalidate, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_invalidate(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kPageInvalidateRange, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_invalidate_range(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kPageInstalled, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_installed(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kPagePush, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_push(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kHomeRangeOp, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_home_range_op(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kHomeRebuild, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_home_rebuild(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kWorksetPull, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_workset_pull(node, std::move(m));
        });
    k_.node().register_handler(
        msg::MsgType::kWorksetPush, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) { on_page_push(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kPageSurrender, msg::HandlerClass::kLeaf,
        [this](msg::Node& node, msg::MessagePtr m) {
            on_page_surrender(node, std::move(m));
        });
}

// ---------------------------------------------------------------------------
// Local holder operations (this kernel gives up or shares its copy).
// ---------------------------------------------------------------------------

bool PageOwner::local_fetch(ProcessSite& site, mem::Vaddr page, bool downgrade,
                            std::byte* out) {
    Capture c{page, downgrade ? SurrenderMode::kDowngrade : SurrenderMode::kReplica, out};
    capture_pages(site, {&c, 1});
    return c.captured;
}

bool PageOwner::local_invalidate(ProcessSite& site, mem::Vaddr page, bool want_data,
                                 std::byte* out, bool* data_included) {
    WriteGuard guard(site.space().mmap_lock());
    const mem::Pte* pte = site.space().page_table().find(page);
    RKO_TRACE("%lld invalidate k=%d page=%llx present=%d",
              static_cast<long long>(k_.engine().now()), k_.id(),
              static_cast<unsigned long long>(page),
              static_cast<int>(pte != nullptr && pte->present));
    if (pte == nullptr || !pte->present) return false;
    // INVARIANT: the PTE clear and the TLB-generation bump must land in the
    // same no-yield window — any sleep in between (the data copy, the frame
    // free's allocator time) would let a local task's soft-TLB serve a
    // stale writable pointer into the frame being reclaimed. The bytes are
    // captured AFTER revocation, so no local store can race past the copy.
    const mem::Pte old = site.space().page_table().clear(page);
    site.space().bump_tlb_generation();
    if (want_data) {
        std::memcpy(out, k_.phys().frame_ptr(old.paddr), mem::kPageSize);
        sim::current_actor().sleep_for(k_.costs().page_copy);
        *data_included = true;
    }
    k_.frames().free(old.paddr);
    sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
    return true;
}

// ---------------------------------------------------------------------------
// The origin-side transaction.
// ---------------------------------------------------------------------------

FaultStatus PageOwner::origin_transaction(ProcessSite& site, mem::Vaddr page,
                                          std::uint32_t access,
                                          topo::KernelId requester,
                                          PageFaultResp& out) {
    // With sharded homes the transaction runs at the page's home kernel,
    // which is the origin only for the shards it happens to own.
    RKO_ASSERT(may_home(site));
    home_msgs_.inc();
    const std::uint64_t vpn = mem::vpn_of(page);
    const bool want_write = (access & mem::kProtWrite) != 0;
    // Ablation switch: without read replication every fault transfers
    // exclusive ownership (the PTE itself is still mapped per `access`).
    const bool take_exclusive = want_write || !read_replication_;

    for (int attempt = 0; attempt < 64; ++attempt) {
        if (site.home_rebuilding(k_.home_map().shard_of(vpn))) {
            // This shard just failed over to us and its census is still
            // being pulled; the requester backs off and refaults.
            out.status = FaultStatus::kRetry;
            return out.status;
        }
        const std::uint64_t epoch0 = site.vma_epoch;

        // Validate against the local VMA tree — the master at the origin, a
        // replica at a non-origin home (kept destructively coherent by the
        // acked kVmaUpdate broadcast, which also advances our vma_epoch).
        bool replica_miss = false;
        {
            ReadGuard guard(site.space().mmap_lock());
            const mem::Vma* vma = site.space().vmas().find(page);
            if (vma == nullptr && !site.is_origin()) {
                // The replica may simply not have fetched this (lazily
                // propagated) mapping yet; pull it before deciding SEGV.
                replica_miss = true;
            } else if (vma == nullptr || (vma->prot & access) != access) {
                out.status = FaultStatus::kSegv;
                return out.status;
            }
        }
        if (replica_miss) {
            mem::Vma fetched;
            if (!k_.vma().ensure_vma(site, page, &fetched)) {
                out.status = FaultStatus::kSegv;
                return out.status;
            }
            continue; // re-validate against the now-filled replica
        }

        auto& shard = site.dir_shard(vpn);
        shard.lock.lock();
        if (site.vma_epoch != epoch0) {
            // A destructive VMA op completed since validation; re-validate.
            shard.lock.unlock();
            continue;
        }
        if (home_of(site, page) != k_.id()) {
            // The shard moved away while this transaction waited on a busy
            // bit or a validation RPC: a drain parts the moment its slice
            // looks idle, and its successor censuses the PTEs. Claiming here
            // would race that census — send the requester to the new home.
            // Checked under the shard lock, in the no-yield window before
            // the claim, so a drain's idle poll sees either this claim or
            // nothing.
            shard.lock.unlock();
            out.status = FaultStatus::kRetry;
            return out.status;
        }
        shard.shadow.on_read(); // the routing decision below reads the entry
        auto it = shard.entries.find(vpn);
        if (it == shard.entries.end()) {
            // First touch machine-wide: the requester allocates a zero page.
            // The entry is born busy; it commits when the install confirms.
            PageDirEntry entry;
            if (take_exclusive) {
                entry.state = PageDirEntry::State::kExclusive;
                entry.owner = requester;
            } else {
                entry.state = PageDirEntry::State::kShared;
                entry.sharers = topo::kbit(requester);
            }
            PageDirEntry busy_marker = entry;
            busy_marker.busy = true;
            shard.entries.emplace(vpn, busy_marker);
            shard.pending[vpn] = entry;
            shard.pending_from[vpn] = requester;
            shard.shadow.on_write();
            shard.lock.unlock();
            out.status = FaultStatus::kOk;
            out.zero_fill = true;
            out.data_included = false;
            out.upgrade = false;
            out.source = static_cast<std::uint8_t>(requester);
            return out.status;
        }

        PageDirEntry& entry = it->second;
        RKO_TRACE("%lld txn k=%d page=%llx access=%u req=%d state=%d owner=%d sharers=%llx busy=%d",
                  static_cast<long long>(k_.engine().now()), k_.id(),
                  static_cast<unsigned long long>(page), access, requester,
                  static_cast<int>(entry.state), entry.owner,
                  static_cast<unsigned long long>(entry.sharers),
                  static_cast<int>(entry.busy));
        if (entry.busy) {
            // Another transaction owns the entry; wait for any release and
            // re-look-up (the entry may have been erased meanwhile).
            shard.lock.unlock();
            // A killed kernel's busy bits never release: the kill notifies
            // these lists so parked kworkers unwind instead of leaking. The
            // pre-wait check covers late arrivals — a fiber that reaches a
            // leaked busy bit after the kill's one-shot notify would park
            // with nobody left to wake it.
            if (k_.node().dead()) throw msg::LocalNodeDead{};
            shard.busy_wait.wait(k_.engine());
            if (k_.node().dead()) throw msg::LocalNodeDead{};
            continue;
        }
        entry.busy = true;
        shard.shadow.on_write();
        const PageDirEntry snapshot = entry;
        shard.lock.unlock();

        // --- Protocol work: no shard lock held across awaits (rule 1). ---
        out.zero_fill = false;
        out.upgrade = false;
        out.data_included = false;
        // Affinity attribution default: the requester itself (upgrade /
        // zero-fill outcomes); the fetch/invalidate branches overwrite it
        // with whichever kernel actually supplied the bytes.
        out.source = static_cast<std::uint8_t>(requester);
        PageDirEntry updated = snapshot;

        if (!take_exclusive) {
            if (snapshot.holds(requester)) {
                // The requester lost its mapping without the directory
                // noticing an ownership change (racing install); tell it to
                // refault if it cannot recover locally.
                out.upgrade = true;
            } else if (snapshot.state == PageDirEntry::State::kShared) {
                // Copy from the most convenient live sharer. A sharer that
                // died mid-transaction (elastic) returns a null reply; its
                // copy died with it, so try the next one. With every sharer
                // dead the data is lost and the requester zero-fills.
                bool have_data = false;
                topo::KernelMask live = snapshot.sharers;
                // Our own copy can be gone despite the directory listing us:
                // a munmap's replica sweep drops PTEs without waiting on the
                // busy bit. Fall through to the remote sharers if so.
                if (snapshot.holds(k_.id()) &&
                    local_fetch(site, page, false, out.data.data())) {
                    out.source = static_cast<std::uint8_t>(k_.id());
                    have_data = true;
                } else {
                    for (topo::KernelMask mask = snapshot.sharers; mask != 0;
                         mask &= mask - 1) {
                        const auto source =
                            static_cast<topo::KernelId>(std::countr_zero(mask));
                        if (source == k_.id()) {
                            live &= ~topo::kbit(source); // local copy gone
                            continue;
                        }
                        if (k_.node().peer_dead(source)) {
                            live &= ~topo::kbit(source);
                            continue;
                        }
                        fetches_.inc();
                        msg::RpcStatus st = msg::RpcStatus::kOk;
                        auto reply = k_.node().rpc(
                            source,
                            msg::make_message(msg::MsgType::kPageFetch,
                                              msg::MsgKind::kRequest,
                                              PageFetchReq{site.pid(), page, false}),
                            &st);
                        if (reply == nullptr) {
                            live &= ~topo::kbit(source);
                            continue;
                        }
                        const auto& fetched = reply->payload_prefix_as<PageFetchResp>();
                        if (!fetched.ok) {
                            // The sharer dropped its copy between our
                            // snapshot and the fetch (a munmap's replica
                            // sweep is not gated on our busy bit) — same
                            // transient the write path tolerates from
                            // invalidate replies. Try the next sharer.
                            live &= ~topo::kbit(source);
                            continue;
                        }
                        out.data = fetched.data;
                        out.source = static_cast<std::uint8_t>(source);
                        have_data = true;
                        break;
                    }
                }
                if (have_data) {
                    out.data_included = true;
                    updated.sharers = live | topo::kbit(requester);
                } else {
                    out.zero_fill = true;
                    out.source = static_cast<std::uint8_t>(requester);
                    updated.sharers = topo::kbit(requester);
                }
            } else {
                // Exclusive elsewhere: downgrade the owner, go Shared. A
                // dead owner took the only copy with it — zero-fill.
                bool have_data = false;
                if (snapshot.owner == k_.id()) {
                    // Our exclusive copy can be gone despite the directory:
                    // munmap's replica sweep is not gated on the busy bit.
                    // Zero-fill like a dead owner if so.
                    have_data = local_fetch(site, page, true, out.data.data());
                } else if (!k_.node().peer_dead(snapshot.owner)) {
                    fetches_.inc();
                    msg::RpcStatus st = msg::RpcStatus::kOk;
                    auto reply = k_.node().rpc(
                        snapshot.owner,
                        msg::make_message(msg::MsgType::kPageFetch, msg::MsgKind::kRequest,
                                          PageFetchReq{site.pid(), page, true}),
                        &st);
                    if (reply != nullptr) {
                        const auto& fetched = reply->payload_prefix_as<PageFetchResp>();
                        // ok=false: the owner dropped the page between our
                        // snapshot and the fetch (munmap replica sweep) —
                        // transient, fall through to zero-fill like a dead
                        // owner.
                        if (fetched.ok) {
                            out.data = fetched.data;
                            have_data = true;
                        }
                    }
                }
                if (have_data) {
                    out.data_included = true;
                    out.source = static_cast<std::uint8_t>(snapshot.owner);
                    updated.state = PageDirEntry::State::kShared;
                    updated.sharers = topo::kbit(snapshot.owner) | topo::kbit(requester);
                    updated.owner = -1;
                } else {
                    out.zero_fill = true;
                    out.source = static_cast<std::uint8_t>(requester);
                    updated.state = PageDirEntry::State::kShared;
                    updated.sharers = topo::kbit(requester);
                    updated.owner = -1;
                }
            }
        } else {
            // WRITE: invalidate every other copy CONCURRENTLY. Exactly one
            // victim is asked for its bytes (`want_data`; all copies agree
            // in Shared state, and Exclusive has a single holder) — the
            // rest answer with a dataless two-byte reply — and all the
            // round trips overlap in one rpc_scatter, so K sharers cost
            // about one RTT instead of K.
            const bool requester_holds = snapshot.holds(requester);
            topo::KernelMask victims = snapshot.holder_mask() & ~topo::kbit(requester);
            // Dead holders (elastic) cannot answer an invalidate and their
            // copies died with them — drop them from the victim set so the
            // data source is always a live kernel.
            for (topo::KernelMask mask = victims; mask != 0; mask &= mask - 1) {
                const auto holder =
                    static_cast<topo::KernelId>(std::countr_zero(mask));
                if (holder != k_.id() && k_.node().peer_dead(holder)) {
                    victims &= ~topo::kbit(holder);
                }
            }
            if (inject_lost_invalidate_ && victims != 0) {
                // Fault injection (see set_inject_lost_invalidate): one
                // victim keeps its stale copy. Trimmed BEFORE the data
                // source is designated, as the serial loop skipped it too.
                victims &= victims - 1;
            }
            const bool need_data = !requester_holds;
            bool have_data = false;
            // The origin's own copy drops inline (no message) and is the
            // cheapest byte source when one is needed.
            if ((victims & topo::kbit(k_.id())) != 0) {
                invalidations_.inc();
                bool included = false;
                const bool had = local_invalidate(site, page, need_data,
                                                  out.data.data(), &included);
                if (had && included) {
                    out.source = static_cast<std::uint8_t>(k_.id());
                    have_data = true;
                }
                victims &= ~topo::kbit(k_.id());
            }
            const topo::KernelId data_source =
                (need_data && !have_data && victims != 0)
                    ? static_cast<topo::KernelId>(std::countr_zero(victims))
                    : -1;
            std::vector<msg::Node::ScatterItem> posts;
            std::vector<topo::KernelId> post_holder;
            for (topo::KernelMask mask = victims; mask != 0; mask &= mask - 1) {
                const auto holder = static_cast<topo::KernelId>(std::countr_zero(mask));
                invalidations_.inc();
                posts.push_back(
                    {holder,
                     msg::make_message(msg::MsgType::kPageInvalidate,
                                       msg::MsgKind::kRequest,
                                       PageInvalidateReq{site.pid(), page,
                                                         holder == data_source})});
                post_holder.push_back(holder);
            }
            if (!posts.empty()) {
                auto replies = k_.node().rpc_scatter(std::move(posts));
                for (std::size_t i = 0; i < replies.size(); ++i) {
                    if (replies[i] == nullptr) continue; // victim died mid-scatter
                    const auto& inv =
                        replies[i]->payload_prefix_as<PageInvalidateResp>();
                    if (inv.had_page && inv.data_included) {
                        out.data = inv.data;
                        out.source = static_cast<std::uint8_t>(post_holder[i]);
                        have_data = true;
                    }
                }
            }
            if (requester_holds) {
                out.upgrade = true;
                out.source = static_cast<std::uint8_t>(requester);
            } else if (have_data) {
                out.data_included = true;
            } else {
                // Every listed holder had already dropped the page — only
                // possible transiently; hand out a fresh zero page.
                out.zero_fill = true;
            }
            updated.state = PageDirEntry::State::kExclusive;
            updated.owner = requester;
            updated.sharers = 0;
        }

        // --- Park the post-transaction state; busy stays set until the
        // requester's install commits (commit_install).
        shard.lock.lock();
        RKO_ASSERT_MSG(shard.entries.contains(vpn),
                       "directory entry vanished while busy (revoke must queue)");
        updated.busy = false;
        shard.pending[vpn] = updated;
        shard.pending_from[vpn] = requester;
        shard.shadow.on_write();
        shard.lock.unlock();
        out.status = FaultStatus::kOk;
        return out.status;
    }
    out.status = FaultStatus::kRetry;
    return out.status;
}

void PageOwner::commit_install(ProcessSite& site, mem::Vaddr page,
                               topo::KernelId requester, bool ok) {
    const std::uint64_t vpn = mem::vpn_of(page);
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto pending_it = shard.pending.find(vpn);
    RKO_ASSERT_MSG(pending_it != shard.pending.end(), "commit without pending state");
    PageDirEntry updated = pending_it->second;
    shard.pending.erase(pending_it);
    shard.pending_from.erase(vpn);
    shard.surrendering.erase(vpn); // the confirm overtook the owner's reply
    apply_commit_locked(shard, vpn, updated, requester, ok);
    shard.shadow.on_write();
    shard.busy_wait.notify_all();
    shard.lock.unlock();
    RKO_TRACE("%lld commit k=%d page=%llx req=%d ok=%d",
              static_cast<long long>(k_.engine().now()), k_.id(),
              static_cast<unsigned long long>(page), requester, static_cast<int>(ok));
}

bool PageOwner::abandon_pending(ProcessSite& site, mem::Vaddr page,
                                topo::KernelId requester) {
    const std::uint64_t vpn = mem::vpn_of(page);
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto pending_it = shard.pending.find(vpn);
    auto from_it = shard.pending_from.find(vpn);
    // A page still being surrendered is rolled back by its own transaction
    // once the owner answers: the owner may have kept its copy, which the
    // rollback below would strip from the directory.
    if (pending_it == shard.pending.end() || from_it == shard.pending_from.end() ||
        from_it->second != requester || shard.surrendering.contains(vpn)) {
        shard.lock.unlock();
        return false;
    }
    const PageDirEntry updated = pending_it->second;
    shard.pending.erase(pending_it);
    shard.pending_from.erase(from_it);
    apply_commit_locked(shard, vpn, updated, requester, /*ok=*/false);
    shard.shadow.on_write();
    shard.busy_wait.notify_all();
    shard.lock.unlock();
    return true;
}

// ---------------------------------------------------------------------------
// Requester side.
// ---------------------------------------------------------------------------

bool PageOwner::install_locally(ProcessSite& site, const mem::Vma& vma,
                                mem::Vaddr page, std::uint32_t access,
                                const PageFaultResp& resp) {
    const bool want_write = (access & mem::kProtWrite) != 0;
    WriteGuard guard(site.space().mmap_lock());

    if (resp.upgrade) {
        // We already hold current bytes; WIDEN the PTE to what this access
        // needs. Never narrow here: another thread on this kernel may hold
        // a TLB entry with the wider rights, and narrowing without a
        // shootdown (generation bump) would let its cached translation
        // disagree with the page table — the directory would then treat a
        // still-written-to copy as read-only. (Narrowing is exclusively the
        // job of the invalidate/downgrade paths, which bump the generation
        // in the same no-yield window.)
        mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->present) {
            // Invalidated between the origin's decision and our install —
            // refault and run the full transaction again.
            return false;
        }
        site.space().page_table().protect(
            page, pte->prot | effective_prot(vma.prot, want_write));
        return true;
    }

    const mem::Paddr frame =
        resp.zero_fill ? k_.frames().alloc_page_zeroed() : k_.frames().alloc();
    if (frame == 0) return false; // OOM: surface as a failed fix => SEGV path
    if (resp.data_included) {
        std::memcpy(k_.phys().frame_ptr(frame), resp.data.data(), mem::kPageSize);
        sim::current_actor().sleep_for(k_.costs().page_copy);
    }
    // Replace any stale mapping (should not exist; belt and braces). Clear
    // and bump before the free can yield (see local_invalidate).
    if (const mem::Pte* old = site.space().page_table().find(page);
        old != nullptr && old->present) {
        const mem::Pte cleared = site.space().page_table().clear(page);
        site.space().bump_tlb_generation();
        k_.frames().free(cleared.paddr);
    }
    site.space().page_table().map(page, frame, effective_prot(vma.prot, want_write));
    return true;
}

mem::Mmu::FaultResult PageOwner::acquire(ProcessSite& site, const mem::Vma& vma,
                                         mem::Vaddr page, std::uint32_t access,
                                         task::Task* t) {
    const auto attribute = [t, page](const PageFaultResp& r) {
        if (t == nullptr) return;
        const auto src = static_cast<std::size_t>(r.source);
        if (src < t->fault_from.size()) ++t->fault_from[src];
        // Same signal feeds the working-set tracker: every installed fault
        // marks its page hot for a later pre-copy migration (§15).
        t->workset_touch(mem::vpn_of(page));
    };
    PageFaultResp resp{};
    // Route by the page's HOME — the origin with one shard, else the home
    // map's owner of the page's shard.
    const topo::KernelId home = home_of(site, page);
    if (home == k_.id()) {
        local_faults_.inc();
        trace::Span span(k_.engine(), k_.id(), "page.fault.local", page);
        const FaultStatus status =
            origin_transaction(site, page, access, k_.id(), resp);
        if (status == FaultStatus::kSegv) return mem::Mmu::FaultResult::kSegv;
        if (status == FaultStatus::kRetry) return mem::Mmu::FaultResult::kFixed;
        const bool installed = install_locally(site, vma, page, access, resp);
        commit_install(site, page, k_.id(), installed);
        if (installed) attribute(resp);
        return mem::Mmu::FaultResult::kFixed;
    }

    remote_faults_.inc();
    trace::Span span(k_.engine(), k_.id(), "page.fault.remote", page);

    // Fault-around: a thread on a sequential read streak upgrades this
    // fault into a batched transaction — the origin services the faulting
    // page as usual and pushes the window's remaining pages unsolicited
    // (kPagePush), turning one RTT per page into one RTT per window. With
    // the knob off (window <= 1) none of this code runs and the wire
    // traffic is bit-identical to the plain protocol.
    std::uint32_t window = 0;
    if (prefetch_window_ > 1 && t != nullptr && (access & mem::kProtWrite) == 0) {
        if (t->last_fault_page + mem::kPageSize == page) {
            ++t->fault_run;
        } else {
            t->fault_run = 1;
        }
        t->last_fault_page = page;
        if (t->fault_run >= kPrefetchMinRun) {
            // Clip to the (replica) VMA; the origin re-clips against the
            // master and the non-busy directory entries it can claim.
            const std::uint64_t avail = (vma.end - page) >> mem::kPageShift;
            const std::uint64_t cap =
                std::min<std::uint64_t>(std::min<std::uint64_t>(
                                            static_cast<std::uint64_t>(prefetch_window_),
                                            kMaxFaultAround),
                                        avail);
            if (cap >= 2) window = static_cast<std::uint32_t>(cap);
        }
    }
    // Post-migration boost (§15): a freshly migrated thread's remote read
    // faults batch from the FIRST touch (no min-run — the whole address
    // space is cold here, so any pattern benefits) with the widened cap.
    // The home recognizes the flag, batches its downgrades under one
    // shootdown, and replies after the pushes, so the window lands
    // installed before the guest resumes.
    bool boosted = false;
    if (workset_push_ > 0 && t != nullptr && (access & mem::kProtWrite) == 0 &&
        t->workset_boost_until > k_.engine().now()) {
        const std::uint64_t avail = (vma.end - page) >> mem::kPageShift;
        const std::uint64_t cap =
            std::min<std::uint64_t>(kMaxWorksetAround, avail);
        if (cap >= 2 && cap > window) {
            window = static_cast<std::uint32_t>(cap);
            boosted = true;
        }
    }

    const Nanos t0 = k_.engine().now();
    msg::RpcStatus rpc_status = msg::RpcStatus::kOk;
    msg::MessagePtr reply;
    if (window >= 2) {
        reply = k_.node().rpc(
            home,
            msg::make_message(msg::MsgType::kPageFaultBatch, msg::MsgKind::kRequest,
                              PageFaultBatchReq{site.pid(), page, access, k_.id(),
                                                window, boosted ? 1u : 0u}),
            &rpc_status);
    } else {
        reply = k_.node().rpc(
            home,
            msg::make_message(msg::MsgType::kPageFault, msg::MsgKind::kRequest,
                              PageFaultReq{site.pid(), page, access, k_.id()}),
            &rpc_status);
    }
    remote_latency_.add(k_.engine().now() - t0);
    if (reply == nullptr) {
        // The home died mid-fault (never the immortal origin). Refault — by
        // the time the MMU retries, the membership update has re-homed the
        // shard and the route recomputes.
        return mem::Mmu::FaultResult::kFixed;
    }
    const PageFaultResp& fault_resp =
        window >= 2 ? reply->payload_prefix_as<PageFaultBatchResp>().first
                    : reply->payload_prefix_as<PageFaultResp>();
    if (fault_resp.status == FaultStatus::kSegv) return mem::Mmu::FaultResult::kSegv;
    if (fault_resp.status == FaultStatus::kRetry) return mem::Mmu::FaultResult::kFixed;
    const bool installed = install_locally(site, vma, page, access, fault_resp);
    if (installed) attribute(fault_resp);
    // Third leg: let the directory commit (or roll back) and release busy.
    k_.node().send(home,
                   msg::make_message(msg::MsgType::kPageInstalled, msg::MsgKind::kOneway,
                                     PageInstalledMsg{site.pid(), page, k_.id(),
                                                      installed}));
    return mem::Mmu::FaultResult::kFixed;
}

std::byte* PageOwner::ensure_readable(ProcessSite& site, mem::Vaddr page) {
    RKO_ASSERT(site.is_origin());
    for (int attempt = 0; attempt < 16; ++attempt) {
        {
            const mem::Pte* pte = site.space().page_table().find(page);
            if (pte != nullptr && pte->allows(mem::kProtRead)) {
                return k_.phys().frame_ptr(pte->paddr);
            }
        }
        mem::Vma vma;
        {
            ReadGuard guard(site.space().mmap_lock());
            const mem::Vma* found = site.space().vmas().find(page);
            if (found == nullptr || (found->prot & mem::kProtRead) == 0) return nullptr;
            vma = *found;
        }
        // Sharded homes: the page's directory entry may live on another
        // kernel even though we are the origin — take the requester role
        // (recomputed per attempt: the home moves if its owner dies).
        const topo::KernelId home = home_of(site, page);
        if (home != k_.id()) {
            msg::RpcStatus st = msg::RpcStatus::kOk;
            auto reply = k_.node().rpc(
                home,
                msg::make_message(msg::MsgType::kPageFault, msg::MsgKind::kRequest,
                                  PageFaultReq{site.pid(), page, mem::kProtRead,
                                               k_.id()}),
                &st);
            if (reply == nullptr) continue; // home died: re-route next attempt
            const auto& resp = reply->payload_prefix_as<PageFaultResp>();
            if (resp.status == FaultStatus::kSegv) return nullptr;
            if (resp.status == FaultStatus::kRetry) continue;
            const bool installed =
                install_locally(site, vma, page, mem::kProtRead, resp);
            k_.node().send(home, msg::make_message(
                                     msg::MsgType::kPageInstalled,
                                     msg::MsgKind::kOneway,
                                     PageInstalledMsg{site.pid(), page, k_.id(),
                                                      installed}));
            continue; // loop re-checks the PTE
        }
        PageFaultResp resp{};
        const FaultStatus status =
            origin_transaction(site, page, mem::kProtRead, k_.id(), resp);
        if (status == FaultStatus::kRetry) continue; // the home moved: re-route
        if (status != FaultStatus::kOk) return nullptr;
        const bool installed = install_locally(site, vma, page, mem::kProtRead, resp);
        commit_install(site, page, k_.id(), installed);
    }
    return nullptr;
}

namespace {

/// Claims the busy bit of `vpn`'s entry, waiting out other transactions.
/// Returns false if the entry does not exist (nothing to do). On success
/// the snapshot holds the pre-claim state and the entry is busy. The
/// ranged paths claim many bits this way: see rule 5 at the top of this
/// file for why that cannot deadlock.
bool claim_busy(sim::Engine& engine, msg::Node& node,
                ProcessSite::DirShard& shard, std::uint64_t vpn,
                PageDirEntry* snapshot) {
    shard.lock.lock();
    auto it = shard.entries.find(vpn);
    while (it != shard.entries.end() && it->second.busy) {
        shard.lock.unlock();
        // Pre-wait check: a late arrival at a killed kernel's leaked busy
        // bit would otherwise park after the kill's one-shot notify.
        if (node.dead()) throw msg::LocalNodeDead{};
        shard.busy_wait.wait(engine);
        if (node.dead()) throw msg::LocalNodeDead{}; // killed mid-wait
        shard.lock.lock();
        it = shard.entries.find(vpn);
    }
    if (it == shard.entries.end()) {
        shard.lock.unlock();
        return false;
    }
    shard.shadow.on_read();
    it->second.busy = true;
    shard.shadow.on_write();
    *snapshot = it->second;
    shard.lock.unlock();
    return true;
}

/// Collects the vpns in [lo, hi) present in the shard right now, sorted —
/// hash-map iteration order must not leak into message contents, or
/// same-seed runs would stop being bit-identical.
std::vector<std::uint64_t> collect_vpns(ProcessSite::DirShard& shard,
                                        std::uint64_t vpn_lo, std::uint64_t vpn_hi) {
    std::vector<std::uint64_t> vpns;
    shard.lock.lock();
    for (const auto& [vpn, entry] : shard.entries) {
        if (vpn >= vpn_lo && vpn < vpn_hi) vpns.push_back(vpn);
    }
    shard.lock.unlock();
    std::sort(vpns.begin(), vpns.end());
    return vpns;
}

/// Chunks each holder's VPN list into kPageInvalidateRange requests and
/// appends them to `posts`. Lists are sorted first: offsets are encoded
/// relative to the chunk's first vpn and must not underflow (per-shard
/// collection concatenates the 16 shards' sorted runs out of order).
void append_ranged_posts(
    Pid pid, std::array<std::vector<std::uint64_t>, topo::kMaxKernels>& by_holder,
    InvalidateRangeOp op, std::vector<msg::Node::ScatterItem>* posts) {
    for (std::size_t h = 0; h < by_holder.size(); ++h) {
        auto& vpns = by_holder[h];
        if (vpns.empty()) continue;
        std::sort(vpns.begin(), vpns.end());
        std::size_t i = 0;
        while (i < vpns.size()) {
            PageInvalidateRangeReq req{};
            req.pid = pid;
            req.op = op;
            req.base_vpn = vpns[i];
            std::uint32_t n = 0;
            while (i + n < vpns.size() && n < PageInvalidateRangeReq::kMaxPages &&
                   vpns[i + n] - req.base_vpn <=
                       std::numeric_limits<std::uint32_t>::max()) {
                req.vpn_offset[n] =
                    static_cast<std::uint32_t>(vpns[i + n] - req.base_vpn);
                ++n;
            }
            req.count = n;
            posts->push_back(
                {static_cast<topo::KernelId>(h),
                 msg::make_message_prefix(msg::MsgType::kPageInvalidateRange,
                                          msg::MsgKind::kRequest, req,
                                          wire_bytes(req))});
            i += n;
        }
    }
}

} // namespace

std::uint32_t PageOwner::scatter_ranged(
    ProcessSite& site,
    const std::array<std::vector<std::uint64_t>, topo::kMaxKernels>& by_holder,
    InvalidateRangeOp op) {
    std::vector<msg::Node::ScatterItem> posts;
    auto buckets = by_holder; // append_ranged_posts sorts in place
    append_ranged_posts(site.pid(), buckets, op, &posts);
    if (posts.empty()) return 0;
    range_rpcs_.inc(posts.size());
    auto replies = k_.node().rpc_scatter(std::move(posts));
    std::uint32_t touched = 0;
    for (const auto& reply : replies) {
        if (reply == nullptr) continue; // holder died mid-scatter (elastic)
        touched += reply->payload_as<PageInvalidateRangeResp>().touched;
    }
    return touched;
}

std::uint32_t PageOwner::revoke_range(ProcessSite& site, mem::Vaddr start,
                                      mem::Vaddr end) {
    RKO_ASSERT(may_home(site));
    const std::uint64_t vpn_lo = mem::vpn_of(start);
    const std::uint64_t vpn_hi = mem::vpn_of(mem::page_ceil(end));

    // Phase 1: claim every in-range entry's busy bit (waiting out live
    // transactions), bucketing the holders for the ranged fan-out.
    std::vector<std::pair<ProcessSite::DirShard*, std::uint64_t>> claimed;
    std::vector<std::uint64_t> local_vpns;
    std::array<std::vector<std::uint64_t>, topo::kMaxKernels> by_holder;
    for (auto& shard : site.dir_shards()) {
        for (const std::uint64_t vpn : collect_vpns(shard, vpn_lo, vpn_hi)) {
            PageDirEntry snapshot;
            if (!claim_busy(k_.engine(), k_.node(), shard, vpn, &snapshot)) continue;
            claimed.emplace_back(&shard, vpn);
            for (topo::KernelMask mask = snapshot.holder_mask(); mask != 0;
                 mask &= mask - 1) {
                const auto holder =
                    static_cast<topo::KernelId>(std::countr_zero(mask));
                invalidations_.inc();
                if (holder == k_.id()) {
                    local_vpns.push_back(vpn);
                } else {
                    by_holder[static_cast<std::size_t>(holder)].push_back(vpn);
                }
            }
        }
    }

    // Phase 2: one batched local drop (a single modeled shootdown for the
    // whole range) plus one ranged RPC per holder chunk, every round trip
    // overlapped — where the serial protocol paid (pages x holders) RPCs
    // and a shootdown per page.
    local_drop_range(site, local_vpns);
    scatter_ranged(site, by_holder, InvalidateRangeOp::kDrop);

    // Phase 3: erase the claimed entries and release any waiters.
    std::uint32_t revoked = 0;
    for (const auto& [shard, vpn] : claimed) {
        shard->lock.lock();
        shard->entries.erase(vpn);
        shard->busy_wait.notify_all();
        shard->lock.unlock();
        ++revoked;
    }

    if (check::enabled()) {
        // Post-condition: no directory entry in the range survives. The
        // caller removed the VMA (under vma_op_lock) before revoking, so no
        // new entry can be born in the range concurrently.
        for (auto& shard : site.dir_shards()) {
            shard.lock.lock();
            for (const auto& [vpn, entry] : shard.entries) {
                RKO_ASSERT_MSG(vpn < vpn_lo || vpn >= vpn_hi,
                               "directory entry survived revoke_range");
            }
            shard.lock.unlock();
        }
    }
    return revoked;
}

std::uint32_t PageOwner::downgrade_range(ProcessSite& site, mem::Vaddr start,
                                         mem::Vaddr end) {
    RKO_ASSERT(may_home(site));
    const std::uint64_t vpn_lo = mem::vpn_of(start);
    const std::uint64_t vpn_hi = mem::vpn_of(mem::page_ceil(end));

    struct Claim {
        ProcessSite::DirShard* shard;
        std::uint64_t vpn;
        PageDirEntry updated;
    };
    std::vector<Claim> claimed;
    std::vector<std::uint64_t> local_vpns;
    std::array<std::vector<std::uint64_t>, topo::kMaxKernels> by_owner;
    for (auto& shard : site.dir_shards()) {
        for (const std::uint64_t vpn : collect_vpns(shard, vpn_lo, vpn_hi)) {
            PageDirEntry snapshot;
            if (!claim_busy(k_.engine(), k_.node(), shard, vpn, &snapshot)) continue;
            PageDirEntry updated = snapshot;
            updated.busy = false;
            if (snapshot.state == PageDirEntry::State::kExclusive) {
                // Exclusive demotes to Shared with the data left in place.
                // The ranged kDowngrade carries no page bytes — the old
                // per-page path fetched (and discarded) 4 KiB per page just
                // to strip a write bit.
                if (snapshot.owner == k_.id()) {
                    local_vpns.push_back(vpn);
                } else {
                    by_owner[static_cast<std::size_t>(snapshot.owner)].push_back(vpn);
                }
                updated.state = PageDirEntry::State::kShared;
                updated.sharers = topo::kbit(snapshot.owner);
                updated.owner = -1;
            }
            claimed.push_back({&shard, vpn, updated});
        }
    }

    local_downgrade_range(site, local_vpns);
    scatter_ranged(site, by_owner, InvalidateRangeOp::kDowngrade);

    std::uint32_t touched = 0;
    for (const auto& c : claimed) {
        c.shard->lock.lock();
        c.shard->entries[c.vpn] = c.updated;
        c.shard->busy_wait.notify_all();
        c.shard->lock.unlock();
        ++touched;
    }
    return touched;
}

std::uint32_t PageOwner::sequester_range(ProcessSite& site, mem::Vaddr start,
                                         mem::Vaddr end) {
    RKO_ASSERT(may_home(site));
    const std::uint64_t vpn_lo = mem::vpn_of(start);
    const std::uint64_t vpn_hi = mem::vpn_of(mem::page_ceil(end));

    struct SeqPage {
        ProcessSite::DirShard* shard;
        std::uint64_t vpn;
        bool origin_holds = false;
        int source_post = -1; ///< scatter index of this page's want_data invalidate
        bool have_data = false;
        std::array<std::byte, mem::kPageSize> data;
    };
    std::vector<SeqPage> pages;
    std::vector<std::size_t> post_page; // want_data post index -> pages index
    std::vector<msg::Node::ScatterItem> posts;
    std::array<std::vector<std::uint64_t>, topo::kMaxKernels> drop_by_holder;

    // Phase 1: claim everything in range. For each page the origin does
    // not hold, ONE holder is asked for the bytes (per-page invalidate with
    // want_data); every other holder lands in a ranged dataless drop. All
    // of it ships in a single scatter below.
    for (auto& shard : site.dir_shards()) {
        for (const std::uint64_t vpn : collect_vpns(shard, vpn_lo, vpn_hi)) {
            PageDirEntry snapshot;
            if (!claim_busy(k_.engine(), k_.node(), shard, vpn, &snapshot)) continue;
            SeqPage p;
            p.shard = &shard;
            p.vpn = vpn;
            p.origin_holds = snapshot.holds(k_.id());
            const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
            topo::KernelMask rest = snapshot.holder_mask() & ~topo::kbit(k_.id());
            if (!p.origin_holds && rest != 0) {
                const auto source =
                    static_cast<topo::KernelId>(std::countr_zero(rest));
                rest &= rest - 1;
                invalidations_.inc();
                p.source_post = static_cast<int>(posts.size());
                post_page.push_back(pages.size());
                posts.push_back(
                    {source,
                     msg::make_message(msg::MsgType::kPageInvalidate,
                                       msg::MsgKind::kRequest,
                                       PageInvalidateReq{site.pid(), page, true})});
            }
            for (topo::KernelMask mask = rest; mask != 0; mask &= mask - 1) {
                const auto holder =
                    static_cast<topo::KernelId>(std::countr_zero(mask));
                invalidations_.inc();
                drop_by_holder[static_cast<std::size_t>(holder)].push_back(vpn);
            }
            pages.push_back(p);
        }
    }

    // Phase 2: one scatter for the whole range — byte-source invalidates
    // and ranged drops fly together.
    const std::size_t nsources = posts.size();
    append_ranged_posts(site.pid(), drop_by_holder, InvalidateRangeOp::kDrop, &posts);
    range_rpcs_.inc(posts.size() - nsources);
    if (!posts.empty()) {
        auto replies = k_.node().rpc_scatter(std::move(posts));
        for (std::size_t i = 0; i < nsources; ++i) {
            if (replies[i] == nullptr) continue; // source died mid-scatter
            const auto& inv = replies[i]->payload_prefix_as<PageInvalidateResp>();
            SeqPage& p = pages[post_page[i]];
            if (inv.had_page && inv.data_included) {
                p.data = inv.data;
                p.have_data = true;
            }
        }
    }

    // Phase 3: batched local application. All PROT_NONE protects share one
    // generation bump and one modeled shootdown; the fetched pages land in
    // fresh origin frames mapped inaccessible (their copies may yield — the
    // protect+bump no-yield window above is already closed by then).
    {
        WriteGuard guard(site.space().mmap_lock());
        std::uint32_t protected_pages = 0;
        for (const SeqPage& p : pages) {
            if (!p.origin_holds) continue;
            const mem::Vaddr page = static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift;
            site.space().page_table().protect(page, mem::kProtNone);
            ++protected_pages;
        }
        if (protected_pages != 0) site.space().bump_tlb_generation();
        for (const SeqPage& p : pages) {
            if (p.origin_holds || !p.have_data) continue;
            const mem::Vaddr page = static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift;
            const mem::Paddr frame = k_.frames().alloc();
            RKO_ASSERT(frame != 0);
            std::memcpy(k_.phys().frame_ptr(frame), p.data.data(), mem::kPageSize);
            sim::current_actor().sleep_for(k_.costs().page_copy);
            site.space().page_table().map(page, frame, mem::kProtNone);
        }
        if (protected_pages != 0) {
            sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
        }
    }

    // Phase 4: directory entries collapse to Exclusive-at-origin (or die if
    // every holder had vanished — only possible transiently).
    std::uint32_t touched = 0;
    for (const SeqPage& p : pages) {
        const bool keep = p.origin_holds || p.have_data;
        p.shard->lock.lock();
        if (keep) {
            PageDirEntry updated;
            updated.state = PageDirEntry::State::kExclusive;
            updated.owner = k_.id();
            updated.busy = false;
            p.shard->entries[p.vpn] = updated;
        } else {
            p.shard->entries.erase(p.vpn);
        }
        p.shard->busy_wait.notify_all();
        p.shard->lock.unlock();
        ++touched;
    }
    return touched;
}

// ---------------------------------------------------------------------------
// Sharded-home maintenance (rko/home).
// ---------------------------------------------------------------------------

std::uint32_t PageOwner::home_range_fanout(ProcessSite& site, HomeRangeKind kind,
                                           mem::Vaddr start, mem::Vaddr end) {
    RKO_ASSERT(site.is_origin());
    // Wait out a census rebuild of any shard we just inherited (elastic):
    // sweeping mid-rebuild would miss the entries the census is about to
    // install, and the holders they name would keep PTEs in the dead range.
    // The rebuilder never takes the vma_op_lock our caller holds.
    await_home_rebuilds(site);
    // Local slice first, then one kHomeRangeOp per other home the map
    // names — their sweeps run concurrently under rpc_scatter. The replica
    // broadcast already completed, so no kernel can validate a new fault
    // in the range while these run.
    std::uint32_t touched = 0;
    switch (kind) {
    case HomeRangeKind::kRevoke:
        touched += revoke_range(site, start, end);
        break;
    case HomeRangeKind::kDowngrade:
        touched += downgrade_range(site, start, end);
        break;
    case HomeRangeKind::kSequester:
        touched += sequester_range(site, start, end);
        break;
    }
    std::vector<msg::Node::ScatterItem> posts;
    const topo::KernelMask homes = k_.home_map().homes(site.origin());
    for (topo::KernelMask m = homes & ~topo::kbit(k_.id()); m != 0; m &= m - 1) {
        const auto h = static_cast<topo::KernelId>(std::countr_zero(m));
        if (k_.node().peer_dead(h)) continue;
        posts.push_back(
            {h, msg::make_message(msg::MsgType::kHomeRangeOp, msg::MsgKind::kRequest,
                                  HomeRangeOpReq{site.pid(), kind, start, end})});
    }
    if (!posts.empty()) {
        auto replies = k_.node().rpc_scatter(std::move(posts));
        for (const auto& reply : replies) {
            if (reply == nullptr) continue; // home died mid-sweep (elastic)
            touched += reply->payload_as<HomeRangeOpResp>().touched;
        }
    }
    return touched;
}

void PageOwner::on_home_range_op(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<HomeRangeOpReq>();
    HomeRangeOpResp resp{0};
    if (k_.has_site(req.pid)) {
        ProcessSite& site = k_.site(req.pid);
        // Wait out a census rebuild of a shard this kernel just inherited
        // (elastic): sweeping mid-rebuild finds no entries — the census
        // installs them right after, and the origin's post-munmap audit
        // would then see holders that were never invalidated.
        await_home_rebuilds(site);
        // The origin holds ITS vma_op_lock across the whole destructive op;
        // this guards the LOCAL slice against a concurrent local sweep
        // (drain eviction). Lock order is strictly origin -> home, so the
        // two-level hold cannot cycle.
        WriteGuard op_guard(site.vma_op_lock());
        switch (req.kind) {
        case HomeRangeKind::kRevoke:
            resp.touched = revoke_range(site, req.start, req.end);
            break;
        case HomeRangeKind::kDowngrade:
            resp.touched = downgrade_range(site, req.start, req.end);
            break;
        case HomeRangeKind::kSequester:
            resp.touched = sequester_range(site, req.start, req.end);
            break;
        }
    }
    node.reply(*m, msg::make_message(msg::MsgType::kHomeRangeOp,
                                     msg::MsgKind::kReply, resp));
}

void PageOwner::on_home_rebuild(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<HomeRebuildReq>();
    HomeRebuildResp resp{};
    if (!k_.has_site(req.pid)) {
        resp.ready = 1; // nothing here to census: trivially complete
    } else {
        ProcessSite& site = k_.site(req.pid);
        // Census: every present PTE in the requested (pid, shard) whose
        // home just moved from `dead` to the requester. Ownership is
        // recomputed from OUR map; if we have not applied the membership
        // event yet the validation fails and ready stays 0 — the rebuilder
        // backs off and retries rather than losing our PTEs from the census.
        const home::Map& map = k_.home_map();
        const int shard = static_cast<int>(req.shard);
        const auto old_owner = map.owner_among(site.pid(), site.origin(), shard,
                                               map.eligible() | topo::kbit(req.dead));
        const auto new_owner = map.owner_of(site.pid(), site.origin(), shard);
        if (old_owner == req.dead && new_owner == m->hdr.src) {
            resp.ready = 1;
            std::vector<std::uint64_t> words;
            site.space().page_table().for_each_present(
                0, std::numeric_limits<mem::Vaddr>::max(),
                [&](mem::Vaddr va, mem::Pte& pte) {
                    const std::uint64_t vpn = mem::vpn_of(va);
                    if (vpn < req.resume_vpn) return;
                    if (map.shard_of(vpn) != shard) return;
                    const std::uint64_t writable =
                        (pte.prot & mem::kProtWrite) != 0 ? 1 : 0;
                    words.push_back((vpn << 1) | writable);
                });
            std::sort(words.begin(), words.end());
            for (const std::uint64_t w : words) {
                if (resp.count >= HomeRebuildResp::kMaxEntries) {
                    resp.has_more = 1;
                    resp.next_vpn = w >> 1;
                    break;
                }
                resp.entry[resp.count++] = w;
            }
        }
    }
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kHomeRebuild,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
}

std::uint32_t PageOwner::rebuild_home_shard(ProcessSite& site, int shard,
                                            topo::KernelId dead) {
    RKO_ASSERT(may_home(site));
    // Pull each live peer's census for this (pid, shard) and merge: a
    // writable PTE means its kernel owned the page Exclusive; read-only
    // PTEs accumulate into a Shared holder mask. The shard is flagged
    // rebuilding, so no transaction mutates these entries concurrently.
    std::unordered_map<std::uint64_t, PageDirEntry> rebuilt;
    // Census EVERY kernel, not just the eligible set: a kernel outside it
    // (deferred boot, hot joiner) never serves as a home but still faults
    // pages in and holds copies that must appear in the rebuilt entries.
    // The removed owner itself is included too — a PARTED kernel is still
    // reachable and still maps its copies (the drain sweeps them only after
    // the shard has moved); a killed one fails peer_dead below.
    for (int ik = 0; ik < k_.topology().nkernels(); ++ik) {
        const auto peer = static_cast<topo::KernelId>(ik);
        auto absorb = [&](std::uint64_t vpn, bool writable, topo::KernelId holder) {
            PageDirEntry& e = rebuilt[vpn];
            if (writable) {
                e.state = PageDirEntry::State::kExclusive;
                e.owner = holder;
                e.sharers = 0;
            } else if (e.state != PageDirEntry::State::kExclusive ||
                       e.owner < 0) {
                e.state = PageDirEntry::State::kShared;
                e.sharers |= topo::kbit(holder);
                e.owner = -1;
            }
        };
        if (peer == k_.id()) {
            site.space().page_table().for_each_present(
                0, std::numeric_limits<mem::Vaddr>::max(),
                [&](mem::Vaddr va, mem::Pte& pte) {
                    const std::uint64_t vpn = mem::vpn_of(va);
                    if (k_.home_map().shard_of(vpn) != shard) return;
                    absorb(vpn, (pte.prot & mem::kProtWrite) != 0, k_.id());
                });
            continue;
        }
        if (k_.node().peer_dead(peer)) continue;
        std::uint64_t cursor = 0;
        int not_ready = 0;
        for (;;) {
            msg::RpcStatus st = msg::RpcStatus::kOk;
            auto reply = k_.node().rpc(
                peer,
                msg::make_message(msg::MsgType::kHomeRebuild, msg::MsgKind::kRequest,
                                  HomeRebuildReq{site.pid(), dead,
                                                 static_cast<std::uint32_t>(shard),
                                                 cursor}),
                &st);
            if (reply == nullptr) break; // peer died mid-census: skip it
            const auto& resp = reply->payload_prefix_as<HomeRebuildResp>();
            if (resp.ready == 0) {
                // The peer has not applied the membership event yet; give
                // it a beat. A peer that still disagrees after the cap has
                // a divergent map — home.map_divergence reports that.
                if (++not_ready > 64) break;
                k_.engine().current().sleep_for(1000);
                continue;
            }
            for (std::uint32_t i = 0; i < resp.count; ++i) {
                const std::uint64_t w = resp.entry[i];
                absorb(w >> 1, (w & 1) != 0, peer);
            }
            if (resp.has_more == 0) break;
            cursor = resp.next_vpn;
        }
    }
    // Install. Entries for this shard cannot pre-exist here (the map moved
    // the shard TO us), but be tolerant: keep whatever is already present.
    std::uint32_t installed = 0;
    std::vector<std::pair<std::uint64_t, PageDirEntry>> sorted(rebuilt.begin(),
                                                               rebuilt.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [vpn, entry] : sorted) {
        auto& dir = site.dir_shard(vpn);
        dir.lock.lock();
        dir.shadow.on_read();
        if (!dir.entries.contains(vpn)) {
            dir.entries.emplace(vpn, entry);
            ++installed;
        }
        dir.shadow.on_write();
        dir.lock.unlock();
    }
    return installed;
}

// ---------------------------------------------------------------------------
// Elastic membership hooks (rko/elastic).
// ---------------------------------------------------------------------------

std::pair<std::uint32_t, std::uint32_t> PageOwner::rehome_dead(ProcessSite& site,
                                                               topo::KernelId dead) {
    RKO_ASSERT(may_home(site));
    std::uint32_t rehomed = 0;
    std::uint32_t lost = 0;
    for (auto& shard : site.dir_shards()) {
        // 1. Roll back installs the dead requester never confirmed. Sorted
        // for determinism; abandon_pending is tolerant of a racing kworker
        // having already done the same rollback.
        std::vector<std::uint64_t> stale;
        shard.lock.lock();
        shard.shadow.on_read();
        for (const auto& [vpn, from] : shard.pending_from) {
            if (from == dead) stale.push_back(vpn);
        }
        shard.lock.unlock();
        std::sort(stale.begin(), stale.end());
        for (const std::uint64_t vpn : stale) {
            abandon_pending(site, static_cast<mem::Vaddr>(vpn) << mem::kPageShift,
                            dead);
        }
        // 2. Strip the corpse from every settled entry — no messages, the
        // dead kernel cannot answer. Entries busy under a live transaction
        // are skipped: the transaction itself routes around dead peers and
        // commits a post-death holder set.
        shard.lock.lock();
        for (auto it = shard.entries.begin(); it != shard.entries.end();) {
            PageDirEntry& entry = it->second;
            if (entry.busy || !entry.holds(dead)) {
                ++it;
                continue;
            }
            if (drop_holder(entry, dead)) {
                ++rehomed;
                ++it;
            } else {
                // Sole copy died with its kernel; later faults zero-fill.
                it = shard.entries.erase(it);
                ++lost;
            }
        }
        // Like the futex sweep: stripping the corpse is a write even when
        // nothing matched — it publishes "no dead holder remains here".
        shard.shadow.on_write();
        shard.busy_wait.notify_all();
        shard.lock.unlock();
    }
    return {rehomed, lost};
}

std::uint32_t PageOwner::evict_holder(ProcessSite& site, topo::KernelId holder) {
    RKO_ASSERT(may_home(site));
    RKO_ASSERT(holder != k_.id());
    // Like the range sweeps, never sweep a slice mid-rebuild: the census
    // installs entries naming the holder right after.
    await_home_rebuilds(site);
    // A claim-all path like the destructive ranged ops (rule 5).
    WriteGuard op_guard(site.vma_op_lock());

    struct EvictPage {
        ProcessSite::DirShard* shard;
        std::uint64_t vpn;
        bool sole = false; ///< the parting holder had the only copy
        bool have_data = false;
        std::array<std::byte, mem::kPageSize> data;
    };
    std::vector<EvictPage> pages;
    std::vector<std::size_t> post_page; // want_data post index -> pages index
    std::vector<msg::Node::ScatterItem> posts;
    std::array<std::vector<std::uint64_t>, topo::kMaxKernels> drop_by_holder;

    // Phase 1: claim every entry the holder appears in. Sole copies are
    // pulled home with a per-page want_data invalidate; shared copies get a
    // ranged dataless drop.
    for (auto& shard : site.dir_shards()) {
        for (const std::uint64_t vpn :
             collect_vpns(shard, 0, std::numeric_limits<std::uint64_t>::max())) {
            PageDirEntry snapshot;
            if (!claim_busy(k_.engine(), k_.node(), shard, vpn, &snapshot)) continue;
            if (!snapshot.holds(holder)) {
                shard.lock.lock();
                auto it = shard.entries.find(vpn);
                if (it != shard.entries.end()) it->second.busy = false;
                shard.busy_wait.notify_all();
                shard.lock.unlock();
                continue;
            }
            EvictPage p;
            p.shard = &shard;
            p.vpn = vpn;
            p.sole = (snapshot.holder_mask() & ~topo::kbit(holder)) == 0;
            const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
            invalidations_.inc();
            if (p.sole) {
                post_page.push_back(pages.size());
                posts.push_back(
                    {holder,
                     msg::make_message(msg::MsgType::kPageInvalidate,
                                       msg::MsgKind::kRequest,
                                       PageInvalidateReq{site.pid(), page, true})});
            } else {
                drop_by_holder[static_cast<std::size_t>(holder)].push_back(vpn);
            }
            pages.push_back(p);
        }
    }

    // Phase 2: one scatter for everything.
    const std::size_t nsources = posts.size();
    append_ranged_posts(site.pid(), drop_by_holder, InvalidateRangeOp::kDrop, &posts);
    range_rpcs_.inc(posts.size() - nsources);
    if (!posts.empty()) {
        auto replies = k_.node().rpc_scatter(std::move(posts));
        for (std::size_t i = 0; i < nsources; ++i) {
            if (replies[i] == nullptr) continue; // holder died mid-drain
            const auto& inv = replies[i]->payload_prefix_as<PageInvalidateResp>();
            EvictPage& p = pages[post_page[i]];
            if (inv.had_page && inv.data_included) {
                p.data = inv.data;
                p.have_data = true;
            }
        }
    }

    // Sharded homes: we may be a non-origin home whose VMA replica has not
    // fetched these mappings yet — fill the replica first (RPC, so outside
    // the mmap lock) or the landing loop below would drop live data.
    if (!site.is_origin()) {
        for (EvictPage& p : pages) {
            if (!p.sole || !p.have_data) continue;
            mem::Vma vma;
            k_.vma().ensure_vma(
                site, static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift, &vma);
        }
    }

    // Phase 3: land the pulled-home bytes in fresh origin frames with the
    // master VMA's protection (fresh maps need no shootdown).
    {
        WriteGuard guard(site.space().mmap_lock());
        for (EvictPage& p : pages) {
            if (!p.sole || !p.have_data) continue;
            const mem::Vaddr page = static_cast<mem::Vaddr>(p.vpn) << mem::kPageShift;
            const mem::Vma* vma = site.space().vmas().find(page);
            if (vma == nullptr) {
                p.have_data = false; // raced with munmap: the data is dead
                continue;
            }
            const mem::Paddr frame = k_.frames().alloc();
            RKO_ASSERT(frame != 0);
            std::memcpy(k_.phys().frame_ptr(frame), p.data.data(), mem::kPageSize);
            sim::current_actor().sleep_for(k_.costs().page_copy);
            if (const mem::Pte* old = site.space().page_table().find(page);
                old != nullptr && old->present) {
                const mem::Pte cleared = site.space().page_table().clear(page);
                site.space().bump_tlb_generation();
                k_.frames().free(cleared.paddr);
            }
            site.space().page_table().map(page, frame, vma->prot);
        }
    }

    // Phase 4: commit the directory updates and release the claims.
    std::uint32_t stripped = 0;
    for (const EvictPage& p : pages) {
        p.shard->lock.lock();
        if (p.sole) {
            if (p.have_data) {
                PageDirEntry updated;
                updated.state = PageDirEntry::State::kExclusive;
                updated.owner = k_.id();
                updated.busy = false;
                p.shard->entries[p.vpn] = updated;
            } else {
                p.shard->entries.erase(p.vpn);
            }
        } else {
            auto it = p.shard->entries.find(p.vpn);
            RKO_ASSERT(it != p.shard->entries.end());
            it->second.sharers &= ~topo::kbit(holder);
            it->second.busy = false;
        }
        p.shard->busy_wait.notify_all();
        p.shard->lock.unlock();
        ++stripped;
    }
    return stripped;
}

// ---------------------------------------------------------------------------
// Batched local holder ops.
// ---------------------------------------------------------------------------

std::uint32_t PageOwner::local_drop_range(ProcessSite& site,
                                          const std::vector<std::uint64_t>& vpns) {
    if (vpns.empty()) return 0;
    WriteGuard guard(site.space().mmap_lock());
    // INVARIANT (see local_invalidate): every PTE clear and the generation
    // bump must share a no-yield window — so clear them ALL, bump once,
    // and only then free the frames and pay the one modeled shootdown.
    std::vector<mem::Paddr> frames;
    frames.reserve(vpns.size());
    for (const std::uint64_t vpn : vpns) {
        const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->present) continue;
        frames.push_back(site.space().page_table().clear(page).paddr);
    }
    if (frames.empty()) return 0;
    site.space().bump_tlb_generation();
    for (const mem::Paddr frame : frames) k_.frames().free(frame);
    sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
    return static_cast<std::uint32_t>(frames.size());
}

std::uint32_t PageOwner::local_downgrade_range(
    ProcessSite& site, const std::vector<std::uint64_t>& vpns) {
    if (vpns.empty()) return 0;
    WriteGuard guard(site.space().mmap_lock());
    std::uint32_t touched = 0;
    for (const std::uint64_t vpn : vpns) {
        const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
        const mem::Pte* pte = site.space().page_table().find(page);
        if (pte == nullptr || !pte->present || (pte->prot & mem::kProtWrite) == 0) {
            continue;
        }
        site.space().page_table().protect(page, pte->prot & ~mem::kProtWrite);
        ++touched;
    }
    if (touched != 0) {
        site.space().bump_tlb_generation();
        sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
    }
    return touched;
}

// ---------------------------------------------------------------------------
// The page-push pipeline (home side): fault-around windows (DESIGN.md §10),
// working-set pulls and post-migration boosted batches (§15).
// ---------------------------------------------------------------------------

std::vector<mem::Vaddr> PageOwner::claim_pages(ProcessSite& site,
                                               std::span<const std::uint64_t> vpns,
                                               topo::KernelId requester) {
    // Validate against the MASTER VMA tree (a non-origin home's replica)
    // under one read guard — the requester built the list against its own
    // replica, which may be stale.
    std::vector<mem::Vaddr> candidates;
    {
        ReadGuard guard(site.space().mmap_lock());
        for (const std::uint64_t vpn : vpns) {
            const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
            const mem::Vma* vma = site.space().vmas().find(page);
            if (vma != nullptr && (vma->prot & mem::kProtRead) != 0) {
                candidates.push_back(page);
            }
        }
    }
    // Try-claim only (rule 4 at the top of this file): skip pages homed
    // elsewhere (a window's pages hash to different shards, and a pull's
    // route can go stale), absent (never touched — the requester zero-fills
    // cheaply), busy (live transaction) or already held by the requester.
    std::vector<mem::Vaddr> grants;
    for (const mem::Vaddr page : candidates) {
        if (home_of(site, page) != k_.id()) continue;
        const std::uint64_t vpn = mem::vpn_of(page);
        auto& shard = site.dir_shard(vpn);
        shard.lock.lock();
        auto it = shard.entries.find(vpn);
        if (it == shard.entries.end() || it->second.busy ||
            it->second.holds(requester)) {
            shard.lock.unlock();
            continue;
        }
        it->second.busy = true;
        shard.lock.unlock();
        grants.push_back(page);
    }
    return grants;
}

void PageOwner::capture_pages(ProcessSite& site, std::span<Capture> batch) {
    // Every PTE change in the batch — ownership revokes and replica
    // downgrades alike — shares one generation bump and one modeled
    // shootdown (the local_*_range shape). Clears, protects and the bump
    // share a no-yield window; the copy sleeps land after it closes (see
    // local_invalidate). Revoked frames are NOT freed here: the caller frees
    // them after its reply, off the requester's critical path.
    WriteGuard guard(site.space().mmap_lock());
    std::uint32_t changed = 0;
    for (Capture& c : batch) {
        const mem::Pte* pte = site.space().page_table().find(c.page);
        if (pte == nullptr || !pte->present) {
            // Our copy is gone despite the directory: munmap's replica
            // broadcast precedes the directory sweep and is not gated on
            // the busy bit. The sweep erases the entry later.
            continue;
        }
        c.captured = true;
        if (c.mode == SurrenderMode::kOwnership) {
            c.revoked = site.space().page_table().clear(c.page);
            ++changed;
        } else if (c.mode == SurrenderMode::kDowngrade &&
                   (pte->prot & mem::kProtWrite) != 0) {
            site.space().page_table().protect(c.page, pte->prot & ~mem::kProtWrite);
            ++changed;
        }
    }
    if (changed != 0) site.space().bump_tlb_generation();
    Nanos copy_cost = 0;
    for (Capture& c : batch) {
        if (!c.captured) continue;
        const mem::Paddr frame = c.mode == SurrenderMode::kOwnership
                                     ? c.revoked.paddr
                                     : site.space().page_table().find(c.page)->paddr;
        std::memcpy(c.out, k_.phys().frame_ptr(frame), mem::kPageSize);
        copy_cost += k_.costs().page_copy;
    }
    if (copy_cost != 0) sim::current_actor().sleep_for(copy_cost);
    if (changed != 0) sim::current_actor().sleep_for(k_.costs().tlb_shootdown);
}

std::uint32_t PageOwner::ship_pages(ProcessSite& site, std::span<Capture> batch,
                                    topo::KernelId requester, topo::KernelId home,
                                    bool workset,
                                    const std::function<void(std::size_t)>& before_send,
                                    std::vector<mem::Paddr>* freed) {
    // A requester already dead gets nothing: every copy stays here.
    if (batch.empty() || k_.node().peer_dead(requester)) return 0;
    std::vector<PagePushMsg> pushes(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) batch[i].out = pushes[i].data.data();
    capture_pages(site, batch);
    const msg::MsgType type = workset ? msg::MsgType::kWorksetPush : msg::MsgType::kPagePush;
    std::uint32_t shipped = 0;
    std::vector<const Capture*> kept;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Capture& c = batch[i];
        if (!c.captured) continue;
        // Re-checked per page: each send yields, and a push to a requester
        // declared dead meanwhile would only be dead-lettered.
        if (k_.node().peer_dead(requester)) {
            if (c.mode == SurrenderMode::kOwnership) kept.push_back(&c);
            continue;
        }
        if (before_send) before_send(i);
        PagePushMsg& push = pushes[i];
        push.pid = site.pid();
        push.va = c.page;
        push.home = static_cast<std::uint8_t>(home);
        push.exclusive = c.mode == SurrenderMode::kOwnership;
        push.source = static_cast<std::uint8_t>(k_.id());
        k_.node().send(requester, msg::make_message_prefix(type, msg::MsgKind::kOneway,
                                                           push, wire_bytes(push)));
        if (push.exclusive) freed->push_back(c.revoked.paddr);
        shipped |= 1u << i;
    }
    if (kept.empty()) return shipped;
    // Kept copies are whole again before anyone learns they stayed: a
    // revoked PTE comes back over its own (never freed) frame — widening a
    // mapping needs no shootdown. A downgraded copy stays read-only, which
    // its Exclusive entry tolerates (a later write upgrades in place).
    WriteGuard guard(site.space().mmap_lock());
    for (const Capture* c : kept) {
        const mem::Pte* pte = site.space().page_table().find(c->page);
        if (site.space().vmas().find(c->page) == nullptr ||
            (pte != nullptr && pte->present)) {
            // A munmap swept the range meanwhile: the data is dead.
            k_.frames().free(c->revoked.paddr);
            continue;
        }
        site.space().page_table().map(c->page, c->revoked.paddr, c->revoked.prot);
    }
    return shipped;
}

// One surrender can carry a whole claim: a pull's VPN list or a window.
static_assert(task::kMaxWorkset <= PageSurrenderReq::kMaxPages &&
              PageOwner::kMaxWorksetAround <= PageSurrenderReq::kMaxPages);

std::uint32_t PageOwner::push_pages(ProcessSite& site,
                                    const std::vector<mem::Vaddr>& pages,
                                    topo::KernelId requester, bool owned,
                                    std::vector<mem::Paddr>* freed) {
    if (pages.empty()) return 0;
    RKO_ASSERT(pages.size() <= PageSurrenderReq::kMaxPages);
    struct PushPage {
        std::uint64_t vpn = 0;
        PageDirEntry updated;
        topo::KernelId source = -1;
        SurrenderMode mode = SurrenderMode::kReplica;
    };
    std::vector<PushPage> work(pages.size());
    // Releases the claim of a home-held page that does not ship: the entry
    // still holds its pre-push snapshot, so clearing busy is the rollback.
    const auto release = [&](std::uint64_t vpn) {
        auto& shard = site.dir_shard(vpn);
        shard.lock.lock();
        auto it = shard.entries.find(vpn);
        if (it != shard.entries.end()) it->second.busy = false;
        shard.shadow.on_write();
        shard.busy_wait.notify_all();
        shard.lock.unlock();
    };

    // Plan: snapshot every claimed entry and decide each page's byte source
    // and post-push directory state — the transitions the requester's own
    // faults would make. When `owned`, Exclusive pages in a writable VMA
    // move OWNED (a migrant's retouch writes then hit a local writable PTE
    // instead of a second remote fault); everything else — and every page
    // of a streaming fault-around window, which stands in for read faults —
    // gets a replica, an Exclusive holder being downgraded. A page a remote
    // owner will surrender has its pending parked now, flagged
    // `surrendering`: the owner pushes it straight to the requester, whose
    // confirm can overtake the owner's reply to us.
    std::vector<std::uint32_t> vma_prot(pages.size());
    {
        ReadGuard guard(site.space().mmap_lock());
        for (std::size_t i = 0; i < pages.size(); ++i) {
            const mem::Vma* vma = site.space().vmas().find(pages[i]);
            vma_prot[i] = vma == nullptr ? 0 : vma->prot;
        }
    }
    for (std::size_t i = 0; i < pages.size(); ++i) {
        PushPage& p = work[i];
        p.vpn = mem::vpn_of(pages[i]);
        auto& shard = site.dir_shard(p.vpn);
        shard.lock.lock();
        auto it = shard.entries.find(p.vpn);
        RKO_ASSERT_MSG(it != shard.entries.end() && it->second.busy,
                       "push lost its claimed entry");
        const PageDirEntry snapshot = it->second;
        p.updated = snapshot;
        p.updated.busy = false;
        if (snapshot.state == PageDirEntry::State::kShared) {
            p.source = snapshot.holds(k_.id())
                           ? k_.id()
                           : static_cast<topo::KernelId>(
                                 std::countr_zero(snapshot.sharers));
            p.updated.sharers = snapshot.sharers | topo::kbit(requester);
        } else if (owned && (vma_prot[i] & mem::kProtWrite) != 0) {
            p.source = snapshot.owner;
            p.mode = SurrenderMode::kOwnership;
            p.updated.owner = requester;
        } else {
            p.source = snapshot.owner;
            p.mode = SurrenderMode::kDowngrade;
            p.updated.state = PageDirEntry::State::kShared;
            p.updated.sharers = topo::kbit(snapshot.owner) | topo::kbit(requester);
            p.updated.owner = -1;
        }
        if (p.source != k_.id()) {
            shard.pending[p.vpn] = p.updated;
            shard.pending_from[p.vpn] = requester;
            shard.surrendering.insert(p.vpn);
            shard.shadow.on_write();
        }
        shard.lock.unlock();
    }

    trace::Counter& issued = owned ? workset_pushed_ : prefetch_issued_;
    std::uint32_t pushed = 0;

    // Home-held pages: one batched capture, each pending parked right
    // before its push is sent. The requester's confirm (kPageInstalled from
    // on_page_push, success or not) commits or rolls each one back and
    // releases the busy bit — the standard three-phase shape. A page that
    // does not ship (our copy raced a munmap sweep, or the requester was
    // found dead and the copy restored) keeps its snapshot.
    std::vector<Capture> local;
    std::vector<std::size_t> local_page;
    for (std::size_t i = 0; i < work.size(); ++i) {
        if (work[i].source != k_.id()) continue;
        local_page.push_back(i);
        local.push_back({pages[i], work[i].mode});
    }
    const std::uint32_t local_shipped = ship_pages(
        site, local, requester, k_.id(), owned,
        [&](std::size_t j) {
            const PushPage& p = work[local_page[j]];
            auto& shard = site.dir_shard(p.vpn);
            shard.lock.lock();
            RKO_ASSERT(shard.entries.contains(p.vpn));
            shard.pending[p.vpn] = p.updated;
            shard.pending_from[p.vpn] = requester;
            shard.lock.unlock();
        },
        freed);
    for (std::size_t j = 0; j < local.size(); ++j) {
        const PushPage& p = work[local_page[j]];
        if ((local_shipped & (1u << j)) == 0) {
            release(p.vpn);
            continue;
        }
        if (p.mode == SurrenderMode::kOwnership) invalidations_.inc();
        issued.inc();
        ++pushed;
    }

    // Remote owners: ONE kPageSurrender per owner, all in one scatter
    // round. Each owner captures its batch under one shootdown, pushes the
    // pages straight to the requester (the bytes cross the fabric once) and
    // answers with the pages it shipped.
    std::vector<PageSurrenderReq> reqs;
    std::vector<topo::KernelId> req_source;
    std::vector<std::vector<std::size_t>> req_page;
    for (std::size_t i = 0; i < work.size(); ++i) {
        const PushPage& p = work[i];
        if (p.source == k_.id()) continue;
        const auto at = std::find(req_source.begin(), req_source.end(), p.source);
        const auto r = static_cast<std::size_t>(at - req_source.begin());
        if (at == req_source.end()) {
            PageSurrenderReq req{};
            req.pid = site.pid();
            req.requester = requester;
            req.workset = owned ? 1u : 0u;
            reqs.push_back(req);
            req_source.push_back(p.source);
            req_page.emplace_back();
        }
        PageSurrenderReq& req = reqs[r];
        req.vpn[req.count] = p.vpn;
        req.mode[req.count] = p.mode;
        ++req.count;
        req_page[r].push_back(i);
        // Counted per page, as the per-page requests they replace were.
        (p.mode == SurrenderMode::kOwnership ? invalidations_ : fetches_).inc();
    }
    if (reqs.empty()) return pushed;
    std::vector<msg::Node::ScatterItem> posts;
    for (std::size_t r = 0; r < reqs.size(); ++r) {
        posts.push_back({req_source[r],
                         msg::make_message_prefix(msg::MsgType::kPageSurrender,
                                                  msg::MsgKind::kRequest, reqs[r],
                                                  wire_bytes(reqs[r]))});
    }
    const auto replies = k_.node().rpc_scatter(std::move(posts));

    // Each answered page drops its `surrendering` flag — unless the
    // requester's confirm already committed it. A shipped page then waits
    // for its confirm like any other; if the requester was declared dead
    // meanwhile, its reap skipped the flagged pending, so it is abandoned
    // here. An unshipped page returns to its snapshot, minus `lost`, an
    // owner that died before answering.
    const auto finish = [&](std::uint64_t vpn, bool shipped, topo::KernelId lost) {
        auto& shard = site.dir_shard(vpn);
        shard.lock.lock();
        if (shard.surrendering.erase(vpn) == 0) {
            shard.lock.unlock();
            return;
        }
        if (!shipped) {
            shard.pending.erase(vpn);
            shard.pending_from.erase(vpn);
            auto it = shard.entries.find(vpn);
            RKO_ASSERT(it != shard.entries.end() && it->second.busy);
            it->second.busy = false;
            if (lost >= 0 && !drop_holder(it->second, lost)) shard.entries.erase(it);
            shard.busy_wait.notify_all();
        }
        shard.shadow.on_write();
        shard.lock.unlock();
        if (shipped && k_.node().peer_dead(requester)) {
            abandon_pending(site, static_cast<mem::Vaddr>(vpn) << mem::kPageShift,
                            requester);
        }
    };
    for (std::size_t r = 0; r < reqs.size(); ++r) {
        for (std::size_t k = 0; k < req_page[r].size(); ++k) {
            const std::uint64_t vpn = work[req_page[r][k]].vpn;
            if (replies[r] == nullptr) {
                // The owner was declared dead before it answered, a lease
                // after its last message: whatever it pushed has long been
                // confirmed, and an unconfirmed page died with its copy.
                finish(vpn, /*shipped=*/false, req_source[r]);
            } else if ((replies[r]->payload_as<PageSurrenderResp>().shipped &
                        (1u << k)) != 0) {
                issued.inc();
                ++pushed;
                finish(vpn, /*shipped=*/true, -1);
            } else {
                // Not shipped: the owner lost its copy to a racing munmap
                // sweep or saw the requester dead and kept it. Either way
                // the snapshot stands.
                finish(vpn, /*shipped=*/false, -1);
            }
        }
    }
    return pushed;
}

void PageOwner::workset_prefault(ProcessSite& site, task::Task& t) {
    const std::uint32_t count =
        std::min<std::uint32_t>(t.pending_workset_count, task::kMaxWorkset);
    t.pending_workset_count = 0;
    if (count == 0 || workset_push_ <= 0) return;
    // Group the shipped list by home and post ONE kWorksetPull per home,
    // all in a single scatter round. Pages homed HERE are skipped — their
    // faults never cross the fabric, so pushing them buys nothing.
    std::vector<std::pair<topo::KernelId, WorksetPullReq>> per_home;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t vpn = t.pending_workset[i];
        const mem::Vaddr page = static_cast<mem::Vaddr>(vpn) << mem::kPageShift;
        // Warm the replica VMA tree first: VMAs replicate lazily on fault,
        // so a freshly instantiated site knows nothing yet — and a push
        // arriving with no covering replica VMA is dropped as a racing
        // munmap. A page whose mapping vanished for real is just skipped.
        mem::Vma vma;
        if (!k_.vma().ensure_vma(site, page, &vma) ||
            (vma.prot & mem::kProtRead) == 0) {
            continue;
        }
        const topo::KernelId home = home_of(site, page);
        if (home == k_.id()) continue;
        auto it = std::find_if(per_home.begin(), per_home.end(),
                               [home](const auto& e) { return e.first == home; });
        if (it == per_home.end()) {
            WorksetPullReq req{};
            req.pid = site.pid();
            req.requester = k_.id();
            per_home.emplace_back(home, req);
            it = std::prev(per_home.end());
        }
        it->second.vpn[it->second.count++] = vpn;
    }
    std::vector<msg::Node::ScatterItem> posts;
    for (auto& [home, req] : per_home) {
        if (k_.node().peer_dead(home)) continue;
        posts.push_back(
            {home, msg::make_message_prefix(msg::MsgType::kWorksetPull,
                                            msg::MsgKind::kRequest, req,
                                            wire_bytes(req))});
    }
    if (posts.empty()) return;
    // Each home replies only once every granted page's push is sent — its
    // own down the same FIFO channel, a remote owner's before that owner
    // answers the home, two wire latencies before the home's reply lands
    // here — so pre-copy behaves as a barrier and the guest resumes into a
    // warm set (a touch that overtakes an install waits out the busy bit).
    // Dead homes (null replies) cost nothing; their pages demand-fault once
    // the membership update re-routes them.
    k_.node().rpc_scatter(std::move(posts));
}

// ---------------------------------------------------------------------------
// Message handlers.
// ---------------------------------------------------------------------------

void PageOwner::on_page_fault(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<PageFaultReq>();
    PageFaultResp resp{};
    if (!k_.has_site(req.pid) || k_.node().peer_dead(req.requester)) {
        // A fault from an already-declared-dead requester must not park a
        // pending install nobody will ever confirm; the reply dead-letters.
        resp.status = FaultStatus::kSegv;
    } else if (home_of(k_.site(req.pid), req.va) != k_.id()) {
        // Stale routing: the requester aimed at a home that has since moved
        // (membership change in flight). Back off and re-route.
        resp.status = FaultStatus::kRetry;
    } else {
        ProcessSite& site = k_.site(req.pid);
        origin_transaction(site, req.va, req.access, req.requester, resp);
        if (resp.status == FaultStatus::kOk && k_.node().peer_dead(req.requester)) {
            // The requester died while we worked: its kPageInstalled will
            // never arrive — roll the parked install back now (idempotent
            // versus the reaper's own sweep).
            abandon_pending(site, req.va, req.requester);
        }
    }
    // Dataless outcomes (SEGV, retry, zero-fill, upgrade) ship 8 bytes, not
    // 8 + 4 KiB — the wire carries only what the requester will read.
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kPageFault,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
}

void PageOwner::on_page_fault_batch(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<PageFaultBatchReq>();
    PageFaultBatchResp resp{};
    ProcessSite* site = nullptr;
    std::vector<mem::Vaddr> grants;
    const bool boosted = req.workset != 0;
    if (!k_.has_site(req.pid) || k_.node().peer_dead(req.requester)) {
        resp.first.status = FaultStatus::kSegv;
    } else if (home_of(k_.site(req.pid), req.va) != k_.id()) {
        resp.first.status = FaultStatus::kRetry;
    } else {
        site = &k_.site(req.pid);
        origin_transaction(*site, req.va, req.access, req.requester, resp.first);
        if (resp.first.status == FaultStatus::kOk) {
            if (k_.node().peer_dead(req.requester)) {
                abandon_pending(*site, req.va, req.requester);
            } else {
                // The window's tail [va+1, va+window): the requester clipped
                // it to its replica VMA; claim_pages re-validates each page.
                const std::uint32_t window =
                    std::min(req.window, boosted ? kMaxWorksetAround : kMaxFaultAround);
                std::vector<std::uint64_t> vpns;
                for (std::uint32_t i = 1; i < window; ++i) {
                    vpns.push_back(mem::vpn_of(req.va) + i);
                }
                grants = claim_pages(*site, vpns, req.requester);
            }
        }
    }
    resp.extra_granted = static_cast<std::uint32_t>(grants.size());
    std::vector<mem::Paddr> freed;
    // Boosted batch (§15): push FIRST, reply last. Every push is sent
    // before the reply (a forwarded one by its owner, which answers us
    // only afterwards), so the window reaches the requester's leaf pool
    // ahead of the demand reply that unblocks the guest; it resumes into a
    // warm window instead of re-faulting page by page into busy directory
    // entries while the pushes are still in flight.
    if (boosted && !grants.empty()) {
        push_pages(*site, grants, req.requester, /*owned=*/true, &freed);
    }
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kPageFaultBatch,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
    // Streaming fault-around: reply first, so the requester installs the
    // demand page while the window's replicas are captured behind it.
    if (!boosted && !grants.empty()) {
        push_pages(*site, grants, req.requester, /*owned=*/false, &freed);
    }
    // Frames revoked by ownership pushes go back to the allocator only now:
    // each free sleeps the allocator path, which the requester need not wait
    // for.
    for (const mem::Paddr frame : freed) k_.frames().free(frame);
}

void PageOwner::on_page_fetch(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<PageFetchReq>();
    PageFetchResp resp{};
    resp.ok = k_.has_site(req.pid) &&
              local_fetch(k_.site(req.pid), req.va, req.downgrade, resp.data.data());
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kPageFetch,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
}

void PageOwner::on_page_installed(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& done = m->payload_as<PageInstalledMsg>();
    if (!k_.has_site(done.pid)) return;
    ProcessSite& site = k_.site(done.pid);
    // Stale-confirm guard (elastic): if this requester was reaped, the
    // reaper already rolled its pending back — and a NEWER transaction may
    // own the pending slot for the same vpn by now. Commit only when the
    // parked install is still waiting on exactly this requester.
    const std::uint64_t vpn = mem::vpn_of(done.va);
    auto& shard = site.dir_shard(vpn);
    shard.lock.lock();
    auto from_it = shard.pending_from.find(vpn);
    const bool current =
        from_it != shard.pending_from.end() && from_it->second == done.requester;
    shard.lock.unlock();
    if (!current) return;
    commit_install(site, done.va, done.requester, done.ok);
}

void PageOwner::on_page_invalidate(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<PageInvalidateReq>();
    PageInvalidateResp resp{};
    resp.data_included = false;
    resp.had_page =
        k_.has_site(req.pid) &&
        local_invalidate(k_.site(req.pid), req.va, req.want_data, resp.data.data(),
                         &resp.data_included);
    node.reply(*m, msg::make_message_prefix(msg::MsgType::kPageInvalidate,
                                            msg::MsgKind::kReply, resp,
                                            wire_bytes(resp)));
}

void PageOwner::on_page_invalidate_range(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<PageInvalidateRangeReq>();
    PageInvalidateRangeResp resp{};
    if (k_.has_site(req.pid)) {
        ProcessSite& site = k_.site(req.pid);
        std::vector<std::uint64_t> vpns;
        vpns.reserve(req.count);
        for (std::uint32_t i = 0; i < req.count; ++i) {
            vpns.push_back(req.base_vpn + req.vpn_offset[i]);
        }
        resp.touched = req.op == InvalidateRangeOp::kDrop
                           ? local_drop_range(site, vpns)
                           : local_downgrade_range(site, vpns);
    }
    node.reply(*m, msg::make_message(msg::MsgType::kPageInvalidateRange,
                                     msg::MsgKind::kReply, resp));
}

void PageOwner::on_page_push(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& push = m->payload_prefix_as<PagePushMsg>();
    bool installed = false;
    if (k_.has_site(push.pid)) {
        ProcessSite& site = k_.site(push.pid);
        // Replica-side VMA lookup: the home validated against the master,
        // but a racing munmap/mprotect may have landed here since —
        // abandoning rolls the home's parked transaction back.
        mem::Vma vma;
        bool found = false;
        {
            ReadGuard guard(site.space().mmap_lock());
            const mem::Vma* v = site.space().vmas().find(push.va);
            if (v != nullptr && (v->prot & mem::kProtRead) != 0) {
                vma = *v;
                found = true;
            }
        }
        if (found) {
            PageFaultResp resp{};
            resp.status = FaultStatus::kOk;
            resp.data_included = true;
            resp.upgrade = false;
            resp.source = push.source;
            resp.data = push.data;
            // An ownership push maps writable (install_locally still clips
            // to the replica VMA's rights).
            const std::uint32_t access =
                push.exclusive ? mem::kProtRead | mem::kProtWrite : mem::kProtRead;
            installed = install_locally(site, vma, push.va, access, resp);
        }
    }
    // ALWAYS confirm — success or not — or the home's busy bit leaks and
    // every later fault on the page hangs. The confirm goes to the page's
    // home, which is not the sender when a remote owner forwarded the page.
    k_.node().send(push.home,
                   msg::make_message(msg::MsgType::kPageInstalled, msg::MsgKind::kOneway,
                                     PageInstalledMsg{push.pid, push.va, k_.id(),
                                                      installed}));
    // Same install either way; the wire type only picks whose accuracy
    // counters it feeds.
    const bool workset = m->hdr.type == msg::MsgType::kWorksetPush;
    trace::Counter& outcome = installed ? (workset ? workset_hit_ : prefetch_hit_)
                                        : (workset ? workset_wasted_ : prefetch_wasted_);
    outcome.inc();
}

void PageOwner::on_page_surrender(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<PageSurrenderReq>();
    PageSurrenderResp resp{};
    std::vector<mem::Paddr> freed;
    if (k_.has_site(req.pid)) {
        // `count` is wire-supplied: never read past the arrays.
        std::vector<Capture> batch(std::min(req.count, PageSurrenderReq::kMaxPages));
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i].page = static_cast<mem::Vaddr>(req.vpn[i]) << mem::kPageShift;
            batch[i].mode = req.mode[i];
        }
        // The same capture and sends the home runs for the pages it holds;
        // the confirms go to the home, not to us.
        resp.shipped = ship_pages(k_.site(req.pid), batch, req.requester, m->hdr.src,
                                  req.workset != 0, nullptr, &freed);
    }
    node.reply(*m, msg::make_message(msg::MsgType::kPageSurrender,
                                     msg::MsgKind::kReply, resp));
    // Revoked frames go back to the allocator only now (see
    // on_page_fault_batch).
    for (const mem::Paddr frame : freed) k_.frames().free(frame);
}

void PageOwner::on_workset_pull(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_prefix_as<WorksetPullReq>();
    WorksetPullResp resp{};
    std::vector<mem::Paddr> freed;
    if (k_.has_site(req.pid) && !k_.node().peer_dead(req.requester) &&
        workset_push_ > 0) {
        ProcessSite& site = k_.site(req.pid);
        // `count` is wire-supplied: never read past the VPN array.
        const std::uint32_t count = std::min<std::uint32_t>(req.count, task::kMaxWorkset);
        const auto grants = claim_pages(site, {req.vpn.data(), count}, req.requester);
        resp.granted = push_pages(site, grants, req.requester, /*owned=*/true, &freed);
    }
    // Reply AFTER the pushes: ours went down this FIFO channel and every
    // owner sent its forwarded ones before answering us, so every granted
    // kWorksetPush reaches the puller ahead of this reply — the pull round
    // is a barrier.
    node.reply(*m, msg::make_message(msg::MsgType::kWorksetPull,
                                     msg::MsgKind::kReply, resp));
    // Revoked frames are freed after the reply (see on_page_fault_batch).
    for (const mem::Paddr frame : freed) k_.frames().free(frame);
}

} // namespace rko::core
