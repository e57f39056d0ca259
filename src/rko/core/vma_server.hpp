// Distributed VMA consistency (paper §IV-C, "address space consistency").
//
// The origin kernel holds the master VMA tree. mmap/munmap/mprotect issued
// anywhere execute at the origin (remote kernels RPC a kVmaOp); replicas
// learn of mappings lazily (kVmaFetch on fault) but destructive changes
// (munmap, mprotect) are pushed eagerly (kVmaUpdate broadcast, acked)
// because a stale positive mapping would violate POSIX semantics.
//
// Locking: the whole operation serializes on the site's vma_op_lock (held
// across the broadcast); tree mutation additionally takes the local
// mmap_lock exclusively, in a no-yield window (mem::MmapWriteGuard): a
// replica's munmap update clears its PTEs and bumps the TLB generation
// under the hold, and frees the frames and charges the shootdown after
// the release.
#pragma once

#include <cstdint>

#include "rko/core/process.hpp"
#include "rko/core/wire.hpp"
#include "rko/msg/node.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::kernel {
class Kernel;
}

namespace rko::core {

class VmaServer {
public:
    explicit VmaServer(kernel::Kernel& k);

    /// Registers kVmaOp (blocking), kVmaFetch (leaf), kVmaUpdate (leaf).
    void install();

    // --- Syscall paths (current task's actor) ---
    /// Returns the mapped address, or 0 on failure (no gap / exhaustion).
    mem::Vaddr mmap(ProcessSite& site, std::uint64_t length, std::uint32_t prot);
    int munmap(ProcessSite& site, mem::Vaddr addr, std::uint64_t length);
    int mprotect(ProcessSite& site, mem::Vaddr addr, std::uint64_t length,
                 std::uint32_t prot);

    /// Sets the program break. new_brk == 0 queries. Returns the resulting
    /// break (old one on failure), Linux-style.
    mem::Vaddr brk(ProcessSite& site, mem::Vaddr new_brk);

    /// Fault support: finds the VMA covering `va` in the local replica,
    /// fetching it from the origin on a miss. False => no such mapping.
    bool ensure_vma(ProcessSite& site, mem::Vaddr va, mem::Vma* out);

    std::uint64_t remote_ops() const { return remote_ops_.value; }
    std::uint64_t local_ops() const { return local_ops_.value; }
    std::uint64_t fetches() const { return fetches_.value; }
    std::uint64_t update_broadcasts() const { return update_broadcasts_.value; }
    /// Replica-served VMA lookups (rko/home): ensure_vma calls a non-origin
    /// kernel answered from its local tree, no RPC. Zero stale serves is
    /// enforced by the 9th ("home") check family.
    std::uint64_t replica_hits() const { return replica_hit_.value; }

private:
    // Origin-side implementations (task actor or kworker).
    std::int64_t origin_mmap(ProcessSite& site, std::uint64_t length,
                             std::uint32_t prot, mem::Vaddr* out_addr);
    std::int64_t origin_destructive(ProcessSite& site, VmaOp op, mem::Vaddr addr,
                                    std::uint64_t length, std::uint32_t prot);
    mem::Vaddr origin_brk(ProcessSite& site, mem::Vaddr new_brk);
    void broadcast_update(ProcessSite& site, VmaOp op, mem::Vaddr start,
                          mem::Vaddr end, std::uint32_t prot);

    void on_vma_op(msg::Node& node, msg::MessagePtr m);
    void on_vma_fetch(msg::Node& node, msg::MessagePtr m);
    void on_vma_update(msg::Node& node, msg::MessagePtr m);

    kernel::Kernel& k_;
    // Registry-backed ("vma.*" in the kernel's MetricsRegistry).
    trace::Counter& remote_ops_;
    trace::Counter& local_ops_;
    trace::Counter& fetches_;
    trace::Counter& update_broadcasts_;
    trace::Counter& replica_hit_;
};

} // namespace rko::core
