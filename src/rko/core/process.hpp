// Per-kernel, per-process state: the "process site".
//
// Every kernel hosting (or having hosted) a thread of process P keeps a
// ProcessSite: an AddressSpace replica, the local member list, and — on the
// origin kernel only — the master copies: the distributed-thread-group
// record, the page-ownership directory, and the VMA-operation serializer.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "rko/mem/addrspace.hpp"
#include "rko/race/race.hpp"
#include "rko/sim/sync.hpp"
#include "rko/task/task.hpp"
#include "rko/topo/topology.hpp"

namespace rko::core {

/// Who currently holds a valid copy of one page. Lives at the origin
/// ("home") kernel; protected by its shard lock plus a per-entry busy bit
/// that serializes multi-message protocol transactions without holding the
/// shard lock across awaits.
struct PageDirEntry {
    enum class State : std::uint8_t { kExclusive, kShared };
    State state = State::kExclusive;
    topo::KernelId owner = -1;        ///< valid when kExclusive
    topo::KernelMask sharers = 0;     ///< bitmask of kernel ids when kShared
    bool busy = false;                ///< a transaction owns this entry

    bool holds(topo::KernelId k) const {
        return state == State::kExclusive ? owner == k
                                          : (sharers & topo::kbit(k)) != 0;
    }

    /// All kernels holding a copy, as a mask.
    topo::KernelMask holder_mask() const {
        return state == State::kExclusive ? topo::kbit(owner) : sharers;
    }
};

/// Origin-side record of the distributed thread group (paper §IV-A).
struct ThreadGroup {
    int alive = 0;
    std::uint64_t spawned = 0;
    std::map<Tid, topo::KernelId> location; ///< live members -> kernel
    sim::WaitList exit_waiters;             ///< whole-process waiters
    /// Every kernel that ever instantiated a replica site (targets for VMA
    /// update broadcasts); includes the origin.
    topo::KernelMask replica_mask = 0;
};

class ProcessSite {
public:
    static constexpr int kDirShards = 16;

    ProcessSite(Pid pid, topo::KernelId kernel, topo::KernelId origin)
        : space_(pid, kernel, origin) {
        if (race::enabled()) {
            const std::string where =
                "k" + std::to_string(kernel) + ".pid" + std::to_string(pid);
            for (int i = 0; i < kDirShards; ++i) {
                race::name_lock(&dir_[static_cast<std::size_t>(i)].lock,
                                where + ".dir_shard[" + std::to_string(i) + "]");
            }
            race::name_lock(&vma_op_lock_, where + ".vma_op_lock");
            race::name_lock(&space_.mmap_lock(), where + ".mmap_lock");
        }
    }
    ProcessSite(const ProcessSite&) = delete;
    ProcessSite& operator=(const ProcessSite&) = delete;

    Pid pid() const { return space_.pid(); }
    topo::KernelId kernel() const { return space_.kernel(); }
    topo::KernelId origin() const { return space_.origin(); }
    bool is_origin() const { return space_.is_origin(); }

    mem::AddressSpace& space() { return space_; }
    const mem::AddressSpace& space() const { return space_; }

    /// Serializes whole VMA operations at the origin, *including* their
    /// replica broadcasts (unlike mmap_lock, this may be held across
    /// awaits; only tasks and kworkers ever take it).
    sim::RwLock& vma_op_lock() { return vma_op_lock_; }

    /// Epoch bumped by every completed munmap/mprotect at the origin; page
    /// transactions re-validate against it (see PageOwner).
    std::uint64_t vma_epoch = 0;

    struct DirShard {
        sim::SpinLock lock;
        std::unordered_map<std::uint64_t, PageDirEntry> entries; ///< by vpn
        /// Transactions in their install phase: the entry state to commit
        /// once the requester confirms its PTE install (by vpn; at most one
        /// per page because busy serializes transactions).
        std::unordered_map<std::uint64_t, PageDirEntry> pending;
        /// Which kernel each pending install is waiting on — so a reaper
        /// can roll back a dead requester's parked transaction, and a
        /// straggling confirm from a reaped requester is recognized as
        /// stale (rko/elastic).
        std::unordered_map<std::uint64_t, topo::KernelId> pending_from;
        /// Pendings parked for a page a remote owner is still surrendering
        /// (kPageSurrender in flight): the requester's confirm commits one
        /// as usual, but only the surrendering transaction rolls one back,
        /// once the owner says whether it shipped the page.
        std::unordered_set<std::uint64_t> surrendering;
        /// Busy-release broadcast: transactions blocked on a busy entry
        /// wait here and re-look-up after every release. Shard-level (not
        /// per-entry) so erasing an entry can never strand parked waiters.
        sim::WaitList busy_wait;
        /// Await-atomicity shadow for entries/pending: directory decisions
        /// read it and directory mutations write it, all under `lock` (the
        /// busy bit carries the cross-await part of the discipline).
        race::ShadowCell shadow{"pages.dir_shard"};
    };
    DirShard& dir_shard(std::uint64_t vpn) {
        return dir_[vpn % kDirShards];
    }
    std::array<DirShard, kDirShards>& dir_shards() { return dir_; }

    /// Home shards (rko/home map indices) whose directory slice this kernel
    /// just inherited after a membership change and is still rebuilding from
    /// the survivors' PTE census (rko/home failover). Transactions routed to
    /// a rebuilding shard answer kRetry until the pull completes. Mutated
    /// only by the elastic reaper actor; readers take one look and act
    /// without an await in between.
    bool home_rebuilding(int home_shard) {
        home_rebuild_shadow_.on_read();
        return home_rebuilding_.contains(home_shard);
    }
    void set_home_rebuilding(int home_shard, bool on) {
        home_rebuild_shadow_.on_write();
        if (on) {
            home_rebuilding_.insert(home_shard);
        } else {
            home_rebuilding_.erase(home_shard);
        }
    }

    /// Origin-only master record.
    ThreadGroup& group() { return group_; }

    /// Tasks of this process hosted on this kernel (including shadows).
    std::map<Tid, task::Task*>& local_tasks() { return local_tasks_; }

private:
    mem::AddressSpace space_;
    sim::RwLock vma_op_lock_;
    std::array<DirShard, kDirShards> dir_;
    ThreadGroup group_;
    std::map<Tid, task::Task*> local_tasks_;
    std::set<int> home_rebuilding_;
    /// The rebuild set is written by the reaper and read by fault
    /// transactions; the kRetry-until-clear protocol is monotonic, so a
    /// reader acting on one (lock-free) look is always safe.
    race::ShadowCell home_rebuild_shadow_{"home.rebuilding",
                                          race::ShadowCell::Policy::kRacyOk};
};

} // namespace rko::core
