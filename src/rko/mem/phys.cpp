#include "rko/mem/phys.hpp"

#include <sys/mman.h>

namespace rko::mem {

void* map_zero_pages(std::size_t bytes) {
    RKO_ASSERT(bytes > 0);
    void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    RKO_ASSERT_MSG(map != MAP_FAILED, "zero-page mmap failed");
    return map;
}

void ZeroPagesDeleter::operator()(void* p) const {
    if (p != nullptr) ::munmap(p, bytes);
}

PhysMem::PhysMem(int nkernels, std::size_t frames_per_kernel)
    : nkernels_(nkernels), frames_per_kernel_(frames_per_kernel) {
    RKO_ASSERT(nkernels >= 1 && frames_per_kernel >= 1);
    partitions_.reserve(static_cast<std::size_t>(nkernels));
    for (int k = 0; k < nkernels; ++k) {
        // Zero pages on first touch: frames start zeroed, like RAM after
        // kernel boot scrubbing, without the host paying for the scrub.
        // Guest-visible zeroing cost is charged at allocation.
        partitions_.push_back(make_zero_array<std::byte>(frames_per_kernel * kPageSize));
    }
}

std::byte* PhysMem::frame_ptr(Paddr paddr) {
    const std::uint64_t global = global_index(paddr);
    const auto kernel = static_cast<std::size_t>(global / frames_per_kernel_);
    const std::uint64_t index = global % frames_per_kernel_;
    return partitions_[kernel].get() + index * kPageSize;
}

const std::byte* PhysMem::frame_ptr(Paddr paddr) const {
    return const_cast<PhysMem*>(this)->frame_ptr(paddr);
}

topo::KernelId PhysMem::home_of(Paddr paddr) const {
    return static_cast<topo::KernelId>(global_index(paddr) / frames_per_kernel_);
}

std::size_t PhysMem::frame_index(Paddr paddr) const {
    return static_cast<std::size_t>(global_index(paddr) % frames_per_kernel_);
}

} // namespace rko::mem
