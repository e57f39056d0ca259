// Sharded directory homes (DESIGN.md §14).
//
// Historically every page-ownership directory entry for process P lived at
// P's origin kernel, making the origin the serialization point for all
// faults, invalidations, and prefetch batches. The home Map decouples the
// two roles: a page's *home* — the kernel holding its directory entry and
// running its ownership transactions — is chosen by hashing the VPN into
// one of `shards` buckets and rendezvous-hashing each (pid, shard) pair
// over the currently-eligible kernels. The Map is the only code that says
// who homes (pid, vpn) and which kernels hold pid's directory, so every
// protocol path runs the same code at any shard count. One shard is the
// degenerate map: both answers are the origin (as in the paper) and the
// rendezvous hash is never consulted.
//
// Eligibility is shrink-only: it starts as the boot membership (deferred
// kernels excluded) and loses kernels on death or part, but a later join
// never re-adds them. Every kernel applies the same membership events in
// the same order (elastic's broadcasts), so all live kernels agree on the
// map without extra coordination — and a shard's owner only ever changes
// when its current owner leaves, which is exactly the failover case the
// elastic reaper already handles for page frames.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "rko/base/assert.hpp"
#include "rko/mem/types.hpp"
#include "rko/topo/topology.hpp"

namespace rko::home {

/// splitmix64 finalizer — cheap, well-mixed, and stable across platforms
/// (the map must hash identically on every kernel).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Per-kernel view of the home map. All kernels converge on identical
/// state because init() and remove_kernel() are driven by the same
/// (totally ordered) boot + membership events everywhere.
class Map {
public:
    /// Boot-time setup: `shards` directory shards spread over the kernels
    /// in `eligible` (the boot membership minus deferred kernels).
    void init(int shards, topo::KernelMask eligible) {
        RKO_ASSERT(shards >= 1);
        RKO_ASSERT(shards == 1 || eligible != 0);
        shards_ = shards;
        eligible_ = eligible;
    }

    int shards() const { return shards_; }
    topo::KernelMask eligible() const { return eligible_; }

    /// Which shard a virtual page number belongs to.
    int shard_of(std::uint64_t vpn) const {
        return shards_ == 1
                   ? 0
                   : static_cast<int>(splitmix64(vpn) %
                                      static_cast<std::uint64_t>(shards_));
    }

    /// The kernel homing (pid, shard) of a process born at `origin` had
    /// the eligible set been `mask` (so the elastic reaper can diff owners
    /// across a membership change): the origin with one shard or an empty
    /// mask (the origin is immortal), else the rendezvous owner.
    topo::KernelId owner_among(Pid pid, topo::KernelId origin, int shard,
                               topo::KernelMask mask) const {
        return shards_ == 1 || mask == 0 ? origin : owner_in(pid, shard, mask);
    }
    topo::KernelId owner_of(Pid pid, topo::KernelId origin, int shard) const {
        return owner_among(pid, origin, shard, eligible_);
    }
    topo::KernelId home_of(Pid pid, topo::KernelId origin, std::uint64_t vpn) const {
        return owner_of(pid, origin, shard_of(vpn));
    }

    /// The kernels `origin`'s directory traffic is routed to: what a
    /// destructive sweep, a drain's eviction and process birth must reach.
    topo::KernelMask homes(topo::KernelId origin) const {
        return shards_ == 1 ? topo::kbit(origin) : (eligible_ | topo::kbit(origin));
    }

    /// Whether kernel `k` may hold a slice of `origin`'s process directory:
    /// only the origin with one shard; any kernel with more (one that left
    /// the eligible set keeps its stale slice until its drain drops it).
    bool may_home(topo::KernelId k, topo::KernelId origin) const {
        return k == origin || shards_ > 1;
    }

    /// Rendezvous (highest-random-weight) owner of (pid, shard) among the
    /// kernels in `mask`. Pure.
    static topo::KernelId owner_in(Pid pid, int shard, topo::KernelMask mask);

    /// Membership shrink: a dead or parted kernel stops owning shards.
    /// Idempotent (false when `k` was already out); joins deliberately do
    /// NOT re-add (re-expansion would need a handoff protocol the failover
    /// path doesn't).
    bool remove_kernel(topo::KernelId k) {
        const bool was_eligible = (eligible_ & topo::kbit(k)) != 0;
        eligible_ &= ~topo::kbit(k);
        return was_eligible;
    }

private:
    int shards_ = 1;
    topo::KernelMask eligible_ = 0;
};

/// A shard count: a whole positive decimal integer that fits an int (no
/// sign, spaces or suffix), else nullopt.
std::optional<int> parse_shards(std::string_view text);

/// Default shard count for MachineConfig: RKO_HOME_SHARDS when set, else
/// 1. A value parse_shards rejects is fatal, with an error naming it.
int shards_from_env();

} // namespace rko::home
