// Buddy frame allocator.
//
// One instance manages one kernel's physical partition (replicated-kernel
// mode) or the whole machine (SMP baseline). The internal SpinLock is the
// analog of Linux's zone->lock: in SMP mode every core's page faults and
// munmaps serialize on a single instance, which is one of the shared-
// data-structure contention points the paper removes.
#pragma once

#include <cstdint>
#include <vector>

#include "rko/mem/phys.hpp"
#include "rko/mem/types.hpp"
#include "rko/sim/sync.hpp"
#include "rko/topo/topology.hpp"

namespace rko::mem {

class FrameAllocator {
public:
    static constexpr int kMaxOrder = 10; ///< up to 4 MiB blocks

    /// Manages frames [0, nframes) of kernel `home`'s partition in `phys`.
    FrameAllocator(PhysMem& phys, topo::KernelId home, const topo::CostModel& costs);

    /// Allocates 2^order contiguous frames; returns the Paddr of the first,
    /// or 0 when the partition is exhausted. Charges the allocator path cost
    /// and serializes on the allocator lock.
    Paddr alloc(int order = 0);

    /// Convenience: one zeroed frame (charges the zeroing cost too).
    Paddr alloc_page_zeroed();

    void free(Paddr paddr, int order = 0);

    std::size_t free_frames() const { return free_frames_; }
    std::size_t total_frames() const { return total_frames_; }
    std::uint64_t alloc_count() const { return alloc_count_; }
    std::uint64_t failed_allocs() const { return failed_; }
    sim::SpinLock& lock() { return lock_; }

private:
    std::size_t buddy_of(std::size_t index, int order) const {
        return index ^ (static_cast<std::size_t>(1) << order);
    }
    void push_free(std::size_t index, int order);
    void remove_free(std::size_t index, int order);

    PhysMem& phys_;
    topo::KernelId home_;
    const topo::CostModel& costs_;
    sim::SpinLock lock_;
    std::size_t total_frames_;
    std::size_t free_frames_ = 0;
    std::uint64_t alloc_count_ = 0;
    std::uint64_t failed_ = 0;
    // Intrusive doubly-linked free lists: free_lists_[o] is the head frame
    // index of the free 2^o-block list (kNil if empty); next_/prev_ chain
    // blocks by their first frame and are meaningful only at free-block
    // heads; free_order_[i] is 1 + the order of the free block headed at
    // i, or 0. All-zero therefore means "no free blocks", so the per-frame
    // arrays are zero pages and only block heads ever get written.
    std::vector<std::size_t> free_lists_;
    ZeroArray<std::size_t> next_;
    ZeroArray<std::size_t> prev_;
    ZeroArray<std::uint8_t> free_order_;
};

} // namespace rko::mem
