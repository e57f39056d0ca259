// Per-kernel address-space replica.
//
// In the replicated-kernel OS every kernel hosting a thread of a process
// keeps its own AddressSpace object: a VMA tree replica, a private page
// table, and a private mmap lock. The origin kernel's instance is the
// master copy that the VMA server serializes updates through. The SMP
// baseline uses a single instance shared by all cores — its mmap_lock is
// then the machine-wide contention point (Linux's mmap_sem).
#pragma once

#include <cstdint>

#include "rko/base/assert.hpp"
#include "rko/check/gate.hpp"
#include "rko/mem/pagetable.hpp"
#include "rko/mem/types.hpp"
#include "rko/mem/vma.hpp"
#include "rko/sim/sync.hpp"
#include "rko/topo/topology.hpp"

namespace rko::mem {

class AddressSpace {
public:
    AddressSpace(Pid pid, topo::KernelId kernel, topo::KernelId origin)
        : pid_(pid), kernel_(kernel), origin_(origin), brk_(kHeapBase) {}
    AddressSpace(const AddressSpace&) = delete;
    AddressSpace& operator=(const AddressSpace&) = delete;

    Pid pid() const { return pid_; }
    topo::KernelId kernel() const { return kernel_; }
    topo::KernelId origin() const { return origin_; }
    bool is_origin() const { return kernel_ == origin_; }

    /// Serializes VMA-tree and page-table structure changes (Linux
    /// mmap_sem). Hold it through MmapReadGuard / MmapWriteGuard below.
    sim::RwLock& mmap_lock() { return mmap_lock_; }
    const sim::RwLock& mmap_lock() const { return mmap_lock_; }

    VmaTree& vmas() { return vmas_; }
    const VmaTree& vmas() const { return vmas_; }
    PageTable& page_table() { return page_table_; }
    const PageTable& page_table() const { return page_table_; }

    /// TLB epoch for every task executing against this replica; bumping it
    /// invalidates their soft-TLBs at the next access (the shootdown's
    /// architectural effect — its cost is charged by the invalidator).
    std::uint64_t tlb_generation() const { return tlb_generation_; }
    void bump_tlb_generation() { ++tlb_generation_; }

    /// Program break for sys_brk.
    Vaddr brk() const { return brk_; }
    void set_brk(Vaddr value) { brk_ = value; }

private:
    Pid pid_;
    topo::KernelId kernel_;
    topo::KernelId origin_;
    sim::RwLock mmap_lock_;
    VmaTree vmas_;
    PageTable page_table_;
    std::uint64_t tlb_generation_ = 0;
    Vaddr brk_;
};

/// Shared hold of a space's mmap lock: VMA lookups and fault validation
/// (Linux faults hold mmap_lock for read).
class [[nodiscard]] MmapReadGuard {
public:
    explicit MmapReadGuard(AddressSpace& space) : lock_(space.mmap_lock()) {
        lock_.lock_shared();
    }
    ~MmapReadGuard() { lock_.unlock_shared(); }
    MmapReadGuard(const MmapReadGuard&) = delete;
    MmapReadGuard& operator=(const MmapReadGuard&) = delete;

private:
    sim::RwLock& lock_;
};

/// Exclusive hold of a space's mmap lock: a no-yield window that covers
/// only VMA-tree and PTE edits and the TLB-generation bump. Every modeled
/// cost — frame allocation, page copy or zeroing, frame frees, the TLB
/// shootdown — is charged before the acquire or after the release, so no
/// fault on the kernel queues behind it (Linux edits PTEs under the
/// page-table lock, not under an exclusive mmap_lock). Under
/// check::enabled() the release asserts that virtual time did not advance
/// since the acquire returned.
class [[nodiscard]] MmapWriteGuard {
public:
    explicit MmapWriteGuard(AddressSpace& space) : lock_(space.mmap_lock()) {
        lock_.lock();
        acquired_at_ = sim::current_actor().now();
    }
    ~MmapWriteGuard() {
        if (check::enabled()) {
            RKO_ASSERT_MSG(sim::current_actor().now() == acquired_at_,
                           "modeled cost charged under the mmap write lock");
        }
        lock_.unlock();
    }
    MmapWriteGuard(const MmapWriteGuard&) = delete;
    MmapWriteGuard& operator=(const MmapWriteGuard&) = delete;

private:
    sim::RwLock& lock_;
    Nanos acquired_at_ = 0;
};

} // namespace rko::mem
