#include "rko/mem/frame_alloc.hpp"

#include <algorithm>

namespace rko::mem {

namespace {
constexpr std::size_t kNil = static_cast<std::size_t>(-1);
} // namespace

FrameAllocator::FrameAllocator(PhysMem& phys, topo::KernelId home,
                               const topo::CostModel& costs)
    : phys_(phys),
      home_(home),
      costs_(costs),
      total_frames_(phys.frames_per_kernel()),
      next_(make_zero_array<std::size_t>(total_frames_)),
      prev_(make_zero_array<std::size_t>(total_frames_)),
      free_order_(make_zero_array<std::uint8_t>(total_frames_)) {
    free_lists_.assign(kMaxOrder + 1, kNil);
    // Seed with maximal aligned blocks.
    std::size_t index = 0;
    while (index < total_frames_) {
        int order = kMaxOrder;
        while (order > 0 && ((index & ((1ULL << order) - 1)) != 0 ||
                             index + (1ULL << order) > total_frames_)) {
            --order;
        }
        if (index + (1ULL << order) > total_frames_) break;
        push_free(index, order);
        index += 1ULL << order;
    }
}

void FrameAllocator::push_free(std::size_t index, int order) {
    auto& head = free_lists_[static_cast<std::size_t>(order)];
    next_[index] = head;
    prev_[index] = kNil;
    if (head != kNil) prev_[head] = index;
    head = index;
    free_order_[index] = static_cast<std::uint8_t>(order + 1);
    free_frames_ += 1ULL << order;
}

void FrameAllocator::remove_free(std::size_t index, int order) {
    auto& head = free_lists_[static_cast<std::size_t>(order)];
    if (prev_[index] != kNil) {
        next_[prev_[index]] = next_[index];
    } else {
        head = next_[index];
    }
    if (next_[index] != kNil) prev_[next_[index]] = prev_[index];
    free_order_[index] = 0;
    free_frames_ -= 1ULL << order;
}

Paddr FrameAllocator::alloc(int order) {
    RKO_ASSERT(order >= 0 && order <= kMaxOrder);
    sim::LockGuard guard(lock_);
    sim::current_actor().sleep_for(costs_.frame_alloc_path);

    int found = -1;
    for (int o = order; o <= kMaxOrder; ++o) {
        if (free_lists_[static_cast<std::size_t>(o)] != kNil) {
            found = o;
            break;
        }
    }
    if (found < 0) {
        ++failed_;
        return 0;
    }
    std::size_t index = free_lists_[static_cast<std::size_t>(found)];
    remove_free(index, found);
    // Split down to the requested order, returning halves to the lists.
    while (found > order) {
        --found;
        push_free(index + (1ULL << found), found);
    }
    ++alloc_count_;
    return phys_.frame_paddr(home_, index);
}

Paddr FrameAllocator::alloc_page_zeroed() {
    const Paddr paddr = alloc(0);
    if (paddr == 0) return 0;
    // Frames may be recycled dirty; the guest-visible zeroing happens here.
    std::byte* frame = phys_.frame_ptr(paddr);
    std::fill_n(frame, kPageSize, std::byte{0});
    sim::current_actor().sleep_for(costs_.page_zero);
    return paddr;
}

void FrameAllocator::free(Paddr paddr, int order) {
    RKO_ASSERT(order >= 0 && order <= kMaxOrder);
    RKO_ASSERT_MSG(phys_.home_of(paddr) == home_, "freeing a foreign frame");
    sim::LockGuard guard(lock_);
    sim::current_actor().sleep_for(costs_.frame_alloc_path);

    std::size_t index = phys_.frame_index(paddr);
    RKO_ASSERT_MSG(free_order_[index] == 0, "double free");
    while (order < kMaxOrder) {
        const std::size_t buddy = buddy_of(index, order);
        if (buddy >= total_frames_ ||
            free_order_[buddy] != static_cast<std::uint8_t>(order + 1)) {
            break;
        }
        remove_free(buddy, order);
        index = std::min(index, buddy);
        ++order;
    }
    push_free(index, order);
}

} // namespace rko::mem
