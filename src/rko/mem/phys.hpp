// Simulated physical memory, partitioned per kernel.
//
// At boot Popcorn carves the machine's RAM into per-kernel partitions; we
// model each partition as one anonymous host mapping whose pages are zero
// on first touch, so a machine costs host memory only for the frames its
// guests actually use. A Paddr encodes (kernel, frame): paddr =
// (global_frame_index + 1) * kPageSize, so paddr 0 stays an invalid
// sentinel.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "rko/base/assert.hpp"
#include "rko/mem/types.hpp"
#include "rko/topo/topology.hpp"

namespace rko::mem {

/// Unmaps a ZeroArray's mapping.
struct ZeroPagesDeleter {
    std::size_t bytes = 0;
    void operator()(void* p) const;
};

/// An array of `n` zero-valued Ts in one anonymous private mapping. The
/// host hands out zero pages lazily, so untouched elements cost neither
/// resident memory nor a memset. Backs guest RAM and the frame
/// allocator's per-frame metadata.
template <typename T>
using ZeroArray = std::unique_ptr<T[], ZeroPagesDeleter>;

void* map_zero_pages(std::size_t bytes);

template <typename T>
ZeroArray<T> make_zero_array(std::size_t n) {
    static_assert(std::is_trivial_v<T>, "zero pages are only a valid T if T is trivial");
    const std::size_t bytes = n * sizeof(T);
    return ZeroArray<T>(static_cast<T*>(map_zero_pages(bytes)), ZeroPagesDeleter{bytes});
}

class PhysMem {
public:
    PhysMem(int nkernels, std::size_t frames_per_kernel);

    int nkernels() const { return nkernels_; }
    std::size_t frames_per_kernel() const { return frames_per_kernel_; }

    /// Host pointer to the 4 KiB frame backing `paddr` (page-aligned).
    std::byte* frame_ptr(Paddr paddr);
    const std::byte* frame_ptr(Paddr paddr) const;

    /// Which kernel's partition a frame belongs to.
    topo::KernelId home_of(Paddr paddr) const;

    /// Paddr of frame `index` within kernel `k`'s partition.
    Paddr frame_paddr(topo::KernelId k, std::size_t index) const {
        RKO_ASSERT(k >= 0 && k < nkernels_ && index < frames_per_kernel_);
        const std::uint64_t global =
            static_cast<std::uint64_t>(k) * frames_per_kernel_ + index;
        return (global + 1) * kPageSize;
    }

    /// Inverse of frame_paddr: partition-local frame index.
    std::size_t frame_index(Paddr paddr) const;

private:
    std::uint64_t global_index(Paddr paddr) const {
        RKO_ASSERT_MSG(paddr != 0 && (paddr & kPageMask) == 0, "bad paddr");
        const std::uint64_t global = paddr / kPageSize - 1;
        RKO_ASSERT(global < static_cast<std::uint64_t>(nkernels_) * frames_per_kernel_);
        return global;
    }

    int nkernels_;
    std::size_t frames_per_kernel_;
    std::vector<ZeroArray<std::byte>> partitions_;
};

} // namespace rko::mem
