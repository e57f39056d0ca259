#include "rko/check/invariants.hpp"

#include <bit>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/api/process.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/process.hpp"
#include "rko/home/home.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/mem/pagetable.hpp"
#include "rko/msg/channel.hpp"
#include "rko/msg/fabric.hpp"
#include "rko/msg/node.hpp"
#include "rko/race/race.hpp"

namespace rko::check {

namespace {

// The guest VA space is 48-bit; walking [0, 2^48) visits only materialized
// radix subtrees, so a whole-space sweep is proportional to mapped pages.
constexpr mem::Vaddr kVaSpaceEnd = 1ULL << 48;

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
    char buf[512];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof buf, f, ap);
    va_end(ap);
    return std::string(buf);
}

/// Kernels outside the membership (killed, drained, or deferred-boot,
/// rko/elastic). Their leftover local footprint is exempt from the
/// cross-kernel checks; check_elastic verifies instead that no survivor
/// still references them.
bool kernel_out(api::Machine& m, topo::KernelId k) { return m.is_killed(k); }

/// One present PTE somewhere on the machine.
struct PteSite {
    topo::KernelId kernel;
    Pid pid;
    mem::Vaddr va;
    mem::Pte pte;
};

std::vector<PteSite> collect_ptes(api::Machine& m) {
    std::vector<PteSite> out;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // fail-stopped footprint is exempt
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            site.space().page_table().for_each_present(
                0, kVaSpaceEnd, [&](mem::Vaddr va, mem::Pte& pte) {
                    out.push_back(PteSite{k, site.pid(), va, pte});
                });
        });
    }
    return out;
}

bool all_threads_finished(api::Machine& m) {
    for (const auto& process : m.processes()) {
        for (const auto& thread : process->threads()) {
            if (!thread->finished()) return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------------
// pages.* — MSI directory coherence (§IV-C).
// ---------------------------------------------------------------------------

void check_pages(api::Machine& m, Report& r) {
    const std::vector<PteSite> ptes = collect_ptes(m);

    // Frame sanity: each physical frame mapped by at most one PTE, and only
    // by the kernel whose partition owns it (every service allocates local).
    std::map<mem::Paddr, const PteSite*> frame_user;
    for (const PteSite& p : ptes) {
        if (m.phys().home_of(p.pte.paddr) != p.kernel) {
            r.fail("pages.frame_foreign",
                   fmt("k%d pid=%lld va=%llx maps frame %llx homed on k%d", p.kernel,
                       static_cast<long long>(p.pid),
                       static_cast<unsigned long long>(p.va),
                       static_cast<unsigned long long>(p.pte.paddr),
                       m.phys().home_of(p.pte.paddr)));
        }
        const auto [it, inserted] = frame_user.emplace(p.pte.paddr, &p);
        if (!inserted) {
            r.fail("pages.frame_aliased",
                   fmt("frame %llx mapped by k%d pid=%lld va=%llx AND k%d pid=%lld "
                       "va=%llx",
                       static_cast<unsigned long long>(p.pte.paddr), p.kernel,
                       static_cast<long long>(p.pid),
                       static_cast<unsigned long long>(p.va), it->second->kernel,
                       static_cast<long long>(it->second->pid),
                       static_cast<unsigned long long>(it->second->va)));
        }
    }

    // Directory pass: every directory entry well-formed, not mid-transaction,
    // holders backed by real PTEs, Shared copies read-only and identical.
    // With home_shards > 1 entries live at per-shard homes, not just the
    // origin, so every site's directory slice is scanned; the home family
    // separately audits that each entry sits at the kernel the map names.
    const topo::KernelMask all_kernels_mask =
        (m.nkernels() >= topo::kMaxKernels)
            ? ~topo::KernelMask{0}
            : (topo::kbit(m.nkernels()) - 1);
    std::set<std::pair<Pid, std::uint64_t>> directory; // (pid, vpn) with entry
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // a killed home's slice is dead state
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            for (auto& shard : site.dir_shards()) {
                for (const auto& [vpn, pending] : shard.pending) {
                    (void)pending;
                    r.fail("pages.pending_txn",
                           fmt("home k%d pid=%lld vpn=%llx has uncommitted "
                               "transaction state at quiesce",
                               k, static_cast<long long>(site.pid()),
                               static_cast<unsigned long long>(vpn)));
                }
                for (const auto& [vpn, entry] : shard.entries) {
                    directory.emplace(site.pid(), vpn);
                    const mem::Vaddr page = static_cast<mem::Vaddr>(vpn)
                                            << mem::kPageShift;
                    if (entry.busy) {
                        r.fail("pages.busy_at_quiesce",
                               fmt("home k%d pid=%lld page=%llx left busy", k,
                                   static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(page)));
                        continue; // holder state is transactional; skip
                    }
                    const bool exclusive =
                        entry.state == core::PageDirEntry::State::kExclusive;
                    if (exclusive &&
                        (entry.owner < 0 || entry.owner >= m.nkernels())) {
                        r.fail("pages.bad_owner",
                               fmt("home k%d pid=%lld page=%llx Exclusive with "
                                   "owner=%d",
                                   k, static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(page),
                                   entry.owner));
                        continue;
                    }
                    if (!exclusive && (entry.sharers == 0 ||
                                       (entry.sharers & ~all_kernels_mask) != 0)) {
                        r.fail("pages.bad_sharers",
                               fmt("home k%d pid=%lld page=%llx Shared with "
                                   "sharers=%llx",
                                   k, static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(page),
                                   static_cast<unsigned long long>(entry.sharers)));
                        continue;
                    }
                    const std::byte* reference = nullptr;
                    topo::KernelId reference_kernel = -1;
                    for (topo::KernelMask mask = entry.holder_mask(); mask != 0;
                         mask &= mask - 1) {
                        const auto h = static_cast<topo::KernelId>(
                            std::countr_zero(mask));
                        if (!m.kernel(h).has_site(site.pid())) {
                            r.fail("pages.holder_without_site",
                                   fmt("pid=%lld page=%llx: directory lists k%d "
                                       "which has no site",
                                       static_cast<long long>(site.pid()),
                                       static_cast<unsigned long long>(page), h));
                            continue;
                        }
                        core::ProcessSite& hsite = m.kernel(h).site(site.pid());
                        const mem::Pte* pte = hsite.space().page_table().find(page);
                        if (pte == nullptr || !pte->present) {
                            r.fail("pages.holder_without_pte",
                                   fmt("pid=%lld page=%llx: directory lists k%d as "
                                       "%s holder but k%d has no valid PTE",
                                       static_cast<long long>(site.pid()),
                                       static_cast<unsigned long long>(page), h,
                                       exclusive ? "Exclusive" : "Shared", h));
                            continue;
                        }
                        if (!exclusive && (pte->prot & mem::kProtWrite) != 0) {
                            r.fail("pages.shared_writable",
                                   fmt("pid=%lld page=%llx: Shared copy at k%d has "
                                       "the write bit",
                                       static_cast<long long>(site.pid()),
                                       static_cast<unsigned long long>(page), h));
                        }
                        const std::byte* bytes = m.phys().frame_ptr(pte->paddr);
                        if (reference == nullptr) {
                            reference = bytes;
                            reference_kernel = h;
                        } else if (std::memcmp(reference, bytes, mem::kPageSize) !=
                                   0) {
                            r.fail("pages.replica_divergence",
                                   fmt("pid=%lld page=%llx: copies at k%d and k%d "
                                       "differ",
                                       static_cast<long long>(site.pid()),
                                       static_cast<unsigned long long>(page),
                                       reference_kernel, h));
                        }
                    }
                }
            }
        });
    }

    // Reverse pass: every valid PTE is backed by a directory entry that
    // names its kernel as a holder — the check a lost invalidate trips.
    for (const PteSite& p : ptes) {
        const std::uint64_t vpn = mem::vpn_of(p.va);
        if (!directory.contains({p.pid, vpn})) {
            r.fail("pages.pte_without_entry",
                   fmt("k%d pid=%lld va=%llx has a valid PTE but no directory "
                       "entry survives at its home",
                       p.kernel, static_cast<long long>(p.pid),
                       static_cast<unsigned long long>(p.va)));
            continue;
        }
        // Membership itself: re-find the entry at its home kernel (the
        // origin when unsharded, the map's rendezvous owner otherwise).
        topo::KernelId origin = -1;
        for (topo::KernelId k = 0; k < m.nkernels() && origin < 0; ++k) {
            if (m.kernel(k).has_site(p.pid) &&
                m.kernel(k).site(p.pid).is_origin()) {
                origin = k;
            }
        }
        if (origin < 0) continue; // groups checker reports the missing origin
        const topo::KernelId home =
            m.kernel(origin).home_map().home_of(p.pid, origin, vpn);
        if (home < 0 || home >= m.nkernels() || !m.kernel(home).has_site(p.pid)) {
            continue; // home family reports map/site damage
        }
        auto& shard = m.kernel(home).site(p.pid).dir_shard(vpn);
        const auto it = shard.entries.find(vpn);
        if (it != shard.entries.end() && !it->second.busy &&
            !it->second.holds(p.kernel)) {
            r.fail("pages.pte_not_in_holders",
                   fmt("k%d pid=%lld va=%llx has a valid PTE but the directory "
                       "names holders=%llx (stale copy: lost invalidate?)",
                       p.kernel, static_cast<long long>(p.pid),
                       static_cast<unsigned long long>(p.va),
                       static_cast<unsigned long long>(
                           it->second.holder_mask())));
        }
    }
}

// ---------------------------------------------------------------------------
// futex.* — distributed futex sanity (§IV-D).
// ---------------------------------------------------------------------------

void check_futex(api::Machine& m, Report& r) {
    const bool machine_drained = all_threads_finished(m);
    std::set<std::pair<Pid, Tid>> seen;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // dead kernel's convoys died with it
        m.kernel(k).futex().for_each_waiter([&](const core::DFutex::WaiterView& w) {
            if (machine_drained) {
                r.fail("futex.waiter_at_exit",
                       fmt("k%d still queues pid=%lld tid=%lld uaddr=%llx "
                           "count=%u after every thread finished (lost wake)",
                           k, static_cast<long long>(w.pid),
                           static_cast<long long>(w.tid),
                           static_cast<unsigned long long>(w.uaddr), w.count));
                return;
            }
            if (w.aggregate) {
                // Origin-side stand-in for a remote kernel's convoy. With
                // the machine idle no grant/deregister is in flight, so a
                // live count must be backed by parked waiters over there.
                if (kernel_out(m, w.kernel)) {
                    return; // reaper sweep owns it (elastic.orphan_waiter)
                }
                if (w.count > 0 &&
                    m.kernel(w.kernel).futex().local_convoy_size(w.pid, w.uaddr) ==
                        0) {
                    r.fail("futex.aggregate_orphan",
                           fmt("k%d aggregate for pid=%lld uaddr=%llx says k%d "
                               "holds %u waiters but its convoy is empty",
                               k, static_cast<long long>(w.pid),
                               static_cast<unsigned long long>(w.uaddr), w.kernel,
                               w.count));
                }
                return; // no single tid to audit
            }
            if (!seen.emplace(w.pid, w.tid).second) {
                r.fail("futex.duplicate_waiter",
                       fmt("pid=%lld tid=%lld queued more than once machine-wide",
                           static_cast<long long>(w.pid),
                           static_cast<long long>(w.tid)));
            }
            task::Task* t = m.kernel(w.kernel).find_task(w.tid);
            if (t == nullptr) {
                r.fail("futex.waiter_without_task",
                       fmt("queued waiter pid=%lld tid=%lld names k%d which has no "
                           "task record",
                           static_cast<long long>(w.pid),
                           static_cast<long long>(w.tid), w.kernel));
                return;
            }
            if (t->state != task::TaskState::kBlocked) {
                r.fail("futex.lost_wake",
                       fmt("queued waiter pid=%lld tid=%lld at k%d is %s, not "
                           "blocked",
                           static_cast<long long>(w.pid),
                           static_cast<long long>(w.tid), w.kernel,
                           task::task_state_name(t->state)));
            }
            if (w.local && !machine_drained) {
                // Local convoy waiters must be represented at the origin,
                // or no origin-side wake can ever reach them. The count
                // may be stale either way (handoffs stale-high, late
                // followers stale-low) but it must be nonzero.
                kernel::Kernel& waiter_kernel = m.kernel(k);
                if (waiter_kernel.has_site(w.pid)) {
                    const topo::KernelId origin = waiter_kernel.site(w.pid).origin();
                    if (!kernel_out(m, origin) &&
                        m.kernel(origin).futex().aggregate_count(w.pid, w.uaddr,
                                                                 k) == 0) {
                        r.fail("futex.convoy_unregistered",
                               fmt("k%d convoy waiter pid=%lld tid=%lld "
                                   "uaddr=%llx has no aggregate at origin k%d",
                                   k, static_cast<long long>(w.pid),
                                   static_cast<long long>(w.tid),
                                   static_cast<unsigned long long>(w.uaddr),
                                   origin));
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// groups.* — distributed thread groups (§IV-A).
// ---------------------------------------------------------------------------

bool task_is_live(const task::Task& t) {
    return t.state != task::TaskState::kExited &&
           t.state != task::TaskState::kShadow;
}

void check_groups(api::Machine& m, Report& r) {
    // Origin uniqueness per pid.
    std::map<Pid, topo::KernelId> origin_of;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            if (!site.is_origin()) return;
            const auto [it, inserted] = origin_of.emplace(site.pid(), k);
            if (!inserted) {
                r.fail("groups.multiple_origins",
                       fmt("pid=%lld claims origin sites at k%d and k%d",
                           static_cast<long long>(site.pid()), it->second, k));
            }
        });
    }

    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // leftover replica sites are exempt
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            if (site.is_origin()) {
                const core::ThreadGroup& group = site.group();
                if (group.alive !=
                    static_cast<int>(group.location.size())) {
                    r.fail("groups.alive_mismatch",
                           fmt("pid=%lld origin k%d: alive=%d but location map has "
                               "%zu members",
                               static_cast<long long>(site.pid()), k, group.alive,
                               group.location.size()));
                }
                for (const auto& [tid, where] : group.location) {
                    if (where < 0 || where >= m.nkernels()) {
                        r.fail("groups.bad_location",
                               fmt("pid=%lld tid=%lld located on k%d (out of "
                                   "range)",
                                   static_cast<long long>(site.pid()),
                                   static_cast<long long>(tid), where));
                        continue;
                    }
                    const task::Task* t = m.kernel(where).find_task(tid);
                    if (t == nullptr || t->pid != site.pid() || !task_is_live(*t)) {
                        r.fail("groups.location_stale",
                               fmt("pid=%lld tid=%lld: origin locates it at k%d "
                                   "but that kernel has %s",
                                   static_cast<long long>(site.pid()),
                                   static_cast<long long>(tid), where,
                                   t == nullptr ? "no record"
                                                : task_state_name(t->state)));
                    }
                }
            } else {
                // Replica site: its origin must know this kernel.
                const auto it = origin_of.find(site.pid());
                if (it == origin_of.end()) {
                    r.fail("groups.origin_missing",
                           fmt("k%d has a replica site for pid=%lld but no origin "
                               "site exists",
                               k, static_cast<long long>(site.pid())));
                } else {
                    const topo::KernelMask mask =
                        m.kernel(it->second).site(site.pid()).group().replica_mask;
                    if ((mask & topo::kbit(k)) == 0) {
                        r.fail("groups.replica_unknown",
                               fmt("k%d hosts a replica site for pid=%lld but the "
                                   "origin's replica_mask=%llx omits it",
                                   k, static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(mask)));
                    }
                }
            }
        });
    }

    // Tid-space uniqueness among live records, and every live member known
    // to its origin (a remote shadow's real record must have a location).
    std::map<Tid, topo::KernelId> live_at;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // elastic.* reports live tasks there
        m.kernel(k).for_each_task([&](const task::Task& t) {
            if (!task_is_live(t)) return;
            const auto [it, inserted] = live_at.emplace(t.tid, k);
            if (!inserted) {
                r.fail("groups.tid_aliased",
                       fmt("tid=%lld has live task records on k%d and k%d",
                           static_cast<long long>(t.tid), it->second, k));
            }
            const auto oit = origin_of.find(t.pid);
            if (oit == origin_of.end()) {
                r.fail("groups.origin_missing",
                       fmt("live tid=%lld of pid=%lld has no origin site anywhere",
                           static_cast<long long>(t.tid),
                           static_cast<long long>(t.pid)));
                return;
            }
            const core::ThreadGroup& group =
                m.kernel(oit->second).site(t.pid).group();
            const auto lit = group.location.find(t.tid);
            if (lit == group.location.end() || lit->second != k) {
                r.fail("groups.member_unknown_to_origin",
                       fmt("live tid=%lld runs on k%d but the origin locates it "
                           "at %s",
                           static_cast<long long>(t.tid), k,
                           lit == group.location.end()
                               ? "nowhere"
                               : fmt("k%d", lit->second).c_str()));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// msg.* — messaging quiescence & per-channel FIFO.
// ---------------------------------------------------------------------------

void check_msg(api::Machine& m, Report& r) {
    for (topo::KernelId src = 0; src < m.nkernels(); ++src) {
        for (topo::KernelId dst = 0; dst < m.nkernels(); ++dst) {
            if (src == dst) continue;
            const msg::Channel& ch = m.fabric().channel(src, dst);
            if (!ch.empty()) {
                r.fail("msg.in_flight_at_idle",
                       fmt("channel k%d->k%d still holds %zu message(s) at "
                           "quiesce (head: %s)",
                           src, dst, ch.depth(),
                           msg::msg_type_name(ch.queued().front()->hdr.type)));
            }
            Nanos prev = -1;
            for (const msg::MessagePtr& message : ch.queued()) {
                if (message->ready_at < prev) {
                    r.fail("msg.fifo_violation",
                           fmt("channel k%d->k%d: %s becomes visible at %lld "
                               "before its predecessor at %lld",
                               src, dst, msg::msg_type_name(message->hdr.type),
                               static_cast<long long>(message->ready_at),
                               static_cast<long long>(prev)));
                }
                prev = message->ready_at;
            }
        }
    }
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        const std::size_t pending = m.fabric().node(k).pending_replies();
        if (pending != 0) {
            r.fail("msg.pending_rpc",
                   fmt("k%d has %zu RPC(s) whose reply never arrived", k, pending));
        }
    }
}

// ---------------------------------------------------------------------------
// locks.* — nothing holds a simulated lock at quiesce.
// ---------------------------------------------------------------------------

void check_locks(api::Machine& m, Report& r) {
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // a dead kernel's locks died with it
        if (m.kernel(k).sched().rq_lock_held()) {
            r.fail("locks.runqueue_held", fmt("k%d runqueue lock held", k));
        }
        if (m.kernel(k).futex().locked_buckets() != 0) {
            r.fail("locks.futex_bucket_held",
                   fmt("k%d holds %zu futex bucket lock(s)", k,
                       m.kernel(k).futex().locked_buckets()));
        }
        if (m.kernel(k).futex().local_lock_held()) {
            r.fail("locks.futex_local_held",
                   fmt("k%d holds its local futex convoy lock", k));
        }
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            const auto& mmap_lock = site.space().mmap_lock();
            if (mmap_lock.write_held() || mmap_lock.readers() != 0) {
                r.fail("locks.mmap_lock_held",
                       fmt("k%d pid=%lld mmap_lock held (writer=%d readers=%d)", k,
                           static_cast<long long>(site.pid()),
                           static_cast<int>(mmap_lock.write_held()),
                           mmap_lock.readers()));
            }
            if (site.vma_op_lock().write_held() ||
                site.vma_op_lock().readers() != 0) {
                r.fail("locks.vma_op_lock_held",
                       fmt("k%d pid=%lld vma_op_lock held", k,
                           static_cast<long long>(site.pid())));
            }
            int shard_index = 0;
            for (auto& shard : site.dir_shards()) {
                if (shard.lock.held()) {
                    r.fail("locks.dir_shard_held",
                           fmt("k%d pid=%lld directory shard %d lock held", k,
                               static_cast<long long>(site.pid()), shard_index));
                }
                ++shard_index;
            }
        });
    }
}

// ---------------------------------------------------------------------------
// balance.* — load-balancer ownership (rko/balance).
// ---------------------------------------------------------------------------

void check_balance(api::Machine& m, Report& r) {
    std::map<Tid, topo::KernelId> queued_at;
    std::map<Tid, topo::KernelId> core_at;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue; // elastic.* reports queued tasks there
        for (const task::Task* t : m.kernel(k).sched().queued_tasks()) {
            if (t->kernel != k) {
                r.fail("balance.queued_foreign",
                       fmt("k%d runqueue holds tid=%lld whose record belongs to "
                           "k%d",
                           k, static_cast<long long>(t->tid), t->kernel));
            }
            if (t->state != task::TaskState::kRunnable || t->on_core()) {
                r.fail("balance.queued_not_runnable",
                       fmt("k%d runqueue holds tid=%lld in state %s (core=%d)", k,
                           static_cast<long long>(t->tid),
                           task_state_name(t->state), t->core));
            }
            if (!t->stealable) {
                r.fail("balance.queued_not_stealable",
                       fmt("k%d runqueue holds tid=%lld without the stealable "
                           "stamp (steal bookkeeping out of sync)",
                           k, static_cast<long long>(t->tid)));
            }
            const auto [it, inserted] = queued_at.emplace(t->tid, k);
            if (!inserted) {
                r.fail("balance.double_queued",
                       fmt("tid=%lld queued on k%d AND k%d (a steal left it in "
                           "two runqueues)",
                           static_cast<long long>(t->tid), it->second, k));
            }
        }
    }
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue;
        m.kernel(k).for_each_task([&](const task::Task& t) {
            if (t.balance_target < -1 || t.balance_target >= m.nkernels()) {
                r.fail("balance.bad_target",
                       fmt("k%d tid=%lld has balance_target=%d (out of range)", k,
                           static_cast<long long>(t.tid), t.balance_target));
            }
            if (!t.on_core()) return;
            const auto [it, inserted] = core_at.emplace(t.tid, k);
            if (!inserted) {
                r.fail("balance.double_core",
                       fmt("tid=%lld owns cores on k%d AND k%d",
                           static_cast<long long>(t.tid), it->second, k));
            }
            if (queued_at.contains(t.tid)) {
                r.fail("balance.queued_and_running",
                       fmt("tid=%lld owns a core on k%d while queued on k%d",
                           static_cast<long long>(t.tid), k,
                           queued_at.at(t.tid)));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// elastic.* — membership & re-homing (rko/elastic, DESIGN.md §11).
// ---------------------------------------------------------------------------

void check_elastic(api::Machine& m, Report& r) {
    if (!m.config().elastic.enabled) return;
    std::vector<bool> out(static_cast<std::size_t>(m.nkernels()));
    topo::KernelMask out_mask = 0;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        out[static_cast<std::size_t>(k)] = kernel_out(m, k);
        if (out[static_cast<std::size_t>(k)]) out_mask |= topo::kbit(k);
    }
    if (out_mask == 0) return;

    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (!out[static_cast<std::size_t>(k)]) continue;
        // An out kernel runs nothing: every task record exited, runqueue
        // empty (the kill unwound them; the drain shipped them away).
        m.kernel(k).for_each_task([&](const task::Task& t) {
            if (!task_is_live(t)) return;
            r.fail("elastic.live_task_on_out_kernel",
                   fmt("k%d is out of the membership but hosts live tid=%lld "
                       "(%s)",
                       k, static_cast<long long>(t.tid),
                       task_state_name(t.state)));
        });
        const std::size_t queued = m.kernel(k).sched().queued_tasks().size();
        if (queued != 0) {
            r.fail("elastic.runqueue_on_out_kernel",
                   fmt("k%d is out of the membership but still queues %zu "
                       "task(s)",
                       k, queued));
        }
        // A parted (drained) kernel handed every page home before leaving:
        // no sites survive. (A killed kernel keeps its final footprint —
        // fail-stop semantics — and the survivors just stop referencing it.)
        if (m.kernel(k).elastic()->peer_state(k) == elastic::PeerState::kParted) {
            m.kernel(k).for_each_site([&](core::ProcessSite& site) {
                r.fail("elastic.parted_site",
                       fmt("k%d parted but still hosts a site for pid=%lld "
                           "(drain left state behind)",
                           k, static_cast<long long>(site.pid())));
            });
        }
    }

    // Survivor side: nothing may reference an out kernel.
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (out[static_cast<std::size_t>(k)]) continue;
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            // Directory slices exist at every home when sharded; scan them
            // all. The group checks below are origin-only state.
            for (auto& shard : site.dir_shards()) {
                for (const auto& [vpn, entry] : shard.entries) {
                    if (entry.busy) continue;
                    for (topo::KernelMask mask = entry.holder_mask() & out_mask;
                         mask != 0; mask &= mask - 1) {
                        r.fail("elastic.dead_holder",
                               fmt("pid=%lld page=%llx: directory still names "
                                   "out kernel k%d as holder (lease never "
                                   "re-homed)",
                                   static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(
                                       static_cast<mem::Vaddr>(vpn)
                                       << mem::kPageShift),
                                   static_cast<topo::KernelId>(
                                       std::countr_zero(mask))));
                    }
                }
            }
            if (!site.is_origin()) return;
            const core::ThreadGroup& group = site.group();
            for (const auto& [tid, where] : group.location) {
                if (where >= 0 && where < m.nkernels() &&
                    out[static_cast<std::size_t>(where)]) {
                    r.fail("elastic.member_on_out_kernel",
                           fmt("pid=%lld tid=%lld: origin still locates it on "
                               "out kernel k%d (never reaped)",
                               static_cast<long long>(site.pid()),
                               static_cast<long long>(tid), where));
                }
            }
            if ((group.replica_mask & out_mask) != 0) {
                r.fail("elastic.replica_mask_stale",
                       fmt("pid=%lld: replica_mask=%llx still names out "
                           "kernel(s) %llx",
                           static_cast<long long>(site.pid()),
                           static_cast<unsigned long long>(group.replica_mask),
                           static_cast<unsigned long long>(group.replica_mask &
                                                           out_mask)));
            }
        });
        // No futex waiter may stay registered to an out kernel (it could
        // never be woken: the wake RPC would dead-letter).
        m.kernel(k).futex().for_each_waiter(
            [&](const core::DFutex::WaiterView& w) {
                if (w.kernel >= 0 && w.kernel < m.nkernels() &&
                    out[static_cast<std::size_t>(w.kernel)]) {
                    r.fail("elastic.orphan_waiter",
                           fmt("pid=%lld tid=%lld queued at k%d but waits on "
                               "out kernel k%d (lost spurious wake)",
                               static_cast<long long>(w.pid),
                               static_cast<long long>(w.tid), k, w.kernel));
                }
            });
        // Membership agreement: every survivor's view matches each
        // kernel's own (split-brain detector).
        for (topo::KernelId p = 0; p < m.nkernels(); ++p) {
            if (p == k) continue;
            const bool thinks_alive = m.kernel(k).elastic()->alive(p);
            if (thinks_alive == out[static_cast<std::size_t>(p)]) {
                r.fail("elastic.membership_split",
                       fmt("k%d believes k%d is %s but k%d reports itself %s",
                           k, p, thinks_alive ? "alive" : "out", p,
                           out[static_cast<std::size_t>(p)] ? "out" : "alive"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// home.* — sharded directory homes (rko/home, DESIGN.md §14).
// ---------------------------------------------------------------------------

// Runs in every mode (unsharded machines satisfy it trivially: every entry
// homes at the origin and replica trees are plain caches of the master).
void check_home(api::Machine& m, Report& r) {
    // Map agreement: every surviving kernel must name the same shard count
    // and eligible set — the maps start identical at boot and apply the
    // same membership events, so divergence would split a shard between
    // two kernels, each believing it is the home.
    topo::KernelId ref = -1;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue;
        if (ref < 0) {
            ref = k;
            continue;
        }
        const home::Map& a = m.kernel(ref).home_map();
        const home::Map& b = m.kernel(k).home_map();
        if (a.shards() != b.shards() || a.eligible() != b.eligible()) {
            r.fail("home.map_divergence",
                   fmt("k%d map (shards=%d eligible=%llx) != k%d map "
                       "(shards=%d eligible=%llx)",
                       ref, a.shards(),
                       static_cast<unsigned long long>(a.eligible()), k,
                       b.shards(), static_cast<unsigned long long>(b.eligible())));
        }
    }
    if (ref < 0) return;

    std::map<Pid, topo::KernelId> origin_of;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue;
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            if (site.is_origin()) origin_of.emplace(site.pid(), k);
        });
    }

    // Placement + uniqueness: each (pid, vpn) entry lives at exactly the
    // kernel the map names, and nowhere else machine-wide. Also: no shard
    // may still be flagged rebuilding at quiesce (faults would starve).
    std::map<std::pair<Pid, std::uint64_t>, topo::KernelId> placed;
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue;
        const home::Map& map = m.kernel(k).home_map();
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            for (int s = 0; s < map.shards(); ++s) {
                if (site.home_rebuilding(s)) {
                    r.fail("home.rebuilding_at_quiesce",
                           fmt("k%d pid=%lld shard=%d still flagged rebuilding",
                               k, static_cast<long long>(site.pid()), s));
                }
            }
            const auto oit = origin_of.find(site.pid());
            if (oit == origin_of.end()) return; // groups family reports it
            for (auto& shard : site.dir_shards()) {
                for (const auto& [vpn, entry] : shard.entries) {
                    (void)entry;
                    const auto [it, inserted] =
                        placed.emplace(std::make_pair(site.pid(), vpn), k);
                    if (!inserted) {
                        r.fail("home.duplicate_entry",
                               fmt("pid=%lld vpn=%llx has directory entries at "
                                   "both k%d and k%d",
                                   static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(vpn),
                                   it->second, k));
                        continue;
                    }
                    const topo::KernelId want =
                        map.home_of(site.pid(), oit->second, vpn);
                    if (want != k) {
                        r.fail("home.entry_misplaced",
                               fmt("pid=%lld vpn=%llx entry lives at k%d but the "
                                   "map homes it at k%d",
                                   static_cast<long long>(site.pid()),
                                   static_cast<unsigned long long>(vpn), k,
                                   want));
                    }
                }
            }
        });
    }

    // Replica freshness: a replica's epoch never runs ahead of the master,
    // and every replica VMA is still covered by master VMAs with the same
    // protection — a stale positive replica would let a fault validate
    // against a dead or demoted mapping (the "zero stale reads" guarantee
    // behind vma.replica_hit).
    for (topo::KernelId k = 0; k < m.nkernels(); ++k) {
        if (kernel_out(m, k)) continue;
        m.kernel(k).for_each_site([&](core::ProcessSite& site) {
            if (site.is_origin()) return;
            const auto oit = origin_of.find(site.pid());
            if (oit == origin_of.end()) return;
            core::ProcessSite& osite = m.kernel(oit->second).site(site.pid());
            if (site.vma_epoch > osite.vma_epoch) {
                r.fail("home.replica_epoch_ahead",
                       fmt("pid=%lld replica k%d epoch=%llu > master epoch=%llu",
                           static_cast<long long>(site.pid()), k,
                           static_cast<unsigned long long>(site.vma_epoch),
                           static_cast<unsigned long long>(osite.vma_epoch)));
            }
            for (const mem::Vma& v : site.space().vmas().snapshot()) {
                mem::Vaddr pos = v.start;
                while (pos < v.end) {
                    const mem::Vma* mv = osite.space().vmas().find(pos);
                    if (mv == nullptr || mv->prot != v.prot) {
                        r.fail("home.replica_vma_stale",
                               fmt("pid=%lld replica k%d caches [%llx,%llx) "
                                   "prot=%x but the master %s at %llx",
                                   static_cast<long long>(site.pid()), k,
                                   static_cast<unsigned long long>(v.start),
                                   static_cast<unsigned long long>(v.end), v.prot,
                                   mv == nullptr ? "has no mapping"
                                                 : "differs in protection",
                                   static_cast<unsigned long long>(pos)));
                        break;
                    }
                    pos = mv->end;
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// race.* — dynamic race-detector findings (rko/race, DESIGN.md §12).
// ---------------------------------------------------------------------------

// Unlike the state audits above, this family drains a recorder: the
// detector accumulates lock-order cycles, foreign releases, and
// stale-reads-across-await as the simulation runs, and the checker turns
// whatever it has collected into violations at the next quiesce point.
// Findings are reset per Machine (api::Machine's constructor), so a
// process running many machines never blames one for another's races.
void check_race(api::Machine& m, Report& r) {
    (void)m;
    if (!race::enabled()) return;
    for (const race::Finding& f : race::findings()) {
        r.fail("race." + f.rule, f.detail);
    }
    if (race::findings_dropped() > 0) {
        r.fail("race.findings_dropped",
               fmt("%llu finding(s) beyond the report cap were dropped",
                   static_cast<unsigned long long>(race::findings_dropped())));
    }
}

} // namespace

std::string Report::to_string() const {
    std::string out;
    for (const Violation& v : violations_) {
        out += v.invariant;
        out += ": ";
        out += v.detail;
        out += '\n';
    }
    return out;
}

const Registry& Registry::builtin() {
    static const Registry registry = [] {
        Registry r;
        r.add({"pages", "IV-C", &check_pages});
        r.add({"futex", "IV-D", &check_futex});
        r.add({"groups", "IV-A", &check_groups});
        r.add({"msg", "IV-B/V", &check_msg});
        r.add({"locks", "IV", &check_locks});
        r.add({"balance", "V", &check_balance});
        r.add({"elastic", "§11", &check_elastic});
        r.add({"home", "§14", &check_home});
        r.add({"race", "§12", &check_race});
        return r;
    }();
    return registry;
}

Report Registry::run(api::Machine& machine) const {
    Report report;
    for (const Invariant& inv : invariants_) {
        inv.fn(machine, report);
    }
    return report;
}

void Registry::enforce(api::Machine& machine, const char* when) const {
    const Report report = run(machine);
    if (report.ok()) return;
    std::fprintf(stderr,
                 "rko/check: %zu invariant violation(s) at %s:\n%s",
                 report.violations().size(), when, report.to_string().c_str());
    std::fflush(stderr);
    base::assert_fail("cross-kernel invariants", __FILE__, __LINE__, when);
}

Report run_all(api::Machine& machine) { return Registry::builtin().run(machine); }

} // namespace rko::check
