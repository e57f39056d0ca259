#include "rko/home/home.hpp"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace rko::home {

std::optional<int> parse_shards(std::string_view text) {
    // from_chars rejects empty text, '+', spaces and overflow; a '-' sign
    // yields a value below 1, and a trailing suffix leaves `end` short.
    int shards = 0;
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, shards);
    if (ec != std::errc() || end != last || shards < 1) return std::nullopt;
    return shards;
}

int shards_from_env() {
    const char* env = std::getenv("RKO_HOME_SHARDS");
    if (env == nullptr || *env == '\0') return 1;
    const std::optional<int> shards = parse_shards(env);
    if (!shards) {
        std::fprintf(stderr, "rko: RKO_HOME_SHARDS='%s' is not a whole positive "
                             "decimal integer\n", env);
        std::exit(2);
    }
    return *shards;
}

topo::KernelId Map::owner_in(Pid pid, int shard, topo::KernelMask mask) {
    RKO_ASSERT(mask != 0);
    // Highest-random-weight: every kernel scores (pid, shard) and the
    // maximum wins. When a kernel leaves, only the shards it owned move —
    // the minimal-disruption property that keeps failover local.
    const std::uint64_t key =
        splitmix64(static_cast<std::uint64_t>(pid) * 0x100000001b3ull ^
                   static_cast<std::uint64_t>(shard));
    topo::KernelId best = -1;
    std::uint64_t best_score = 0;
    for (topo::KernelMask m = mask; m != 0; m &= m - 1) {
        const auto k = static_cast<topo::KernelId>(std::countr_zero(m));
        const std::uint64_t score =
            splitmix64(key ^ (static_cast<std::uint64_t>(k) + 1) * 0x9e3779b9ull);
        if (best < 0 || score > best_score ||
            (score == best_score && k < best)) {
            best = k;
            best_score = score;
        }
    }
    return best;
}

} // namespace rko::home
