// rkobench --selftest: the benchmark's own test.
//
//   - one seed gives bit-identical virtual-time results twice;
//   - a second seed gives different inputs (and results);
//   - a traced run's virtual-time results equal the untraced run's, and
//     on kv_service and migrate_churn every op's layer buckets plus the
//     `other` remainder sum to its latency within 1%;
//   - every output check passes;
//   - migrate_churn's balancer is active (steals and hints);
//   - the npb workload reproduces bench_apps' 32-core IS and CG makespans to
//     the nanosecond, proving it drives the same code.
//
// Workloads run at reduced sizes (RunOptions::small) through the same code.
#include <cstdio>
#include <string>

#include "bench.hpp"

namespace rkobench {
namespace {

// bench_apps at --seed=1 (the seed its IS key generation uses regardless):
// is.32.popcorn_ns and cg.32.popcorn_ns.
constexpr Nanos kBenchAppsIs32 = 5'796'024;
constexpr Nanos kBenchAppsCg32 = 7'175'233;
constexpr double kMaxSumError = 0.01;

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

double layer(const Rep& rep, const char* name) {
    for (const auto& [n, m] : rep.layers) {
        if (n == name) return m.value;
    }
    return -1.0;
}

} // namespace

int selftest() {
    for (const Workload& w : kWorkloads) {
        const std::string name = w.name;
        RunOptions options;
        options.small = true;
        options.seed = 1;
        const Rep a = w.run(options);
        const Rep b = w.run(options);
        options.traced = true;
        const Rep t = w.run(options);
        options.traced = false;
        options.seed = 2;
        const Rep c = w.run(options);

        expect(a.failed == 0 && b.failed == 0 && t.failed == 0 && c.failed == 0,
               name + ": every output check passes");
        expect(a.attempted > 0 && a.latency_us.count() > 0, name + ": ops ran");
        expect(a.fingerprint == b.fingerprint && a.latency_us.values() == b.latency_us.values() &&
                   a.makespan == b.makespan,
               name + ": same seed, bit-identical virtual-time results");
        expect(a.input_hash != c.input_hash, name + ": another seed, different inputs");
        expect(a.fingerprint != c.fingerprint, name + ": another seed, different results");
        expect(t.fingerprint == a.fingerprint && t.latency_us.values() == a.latency_us.values(),
               name + ": traced run's virtual-time results equal the untraced run's");
        const double err = layer(t, "split.sum_error_max");
        const double ops = layer(t, "split.ops");
        expect(ops == static_cast<double>(t.latency_us.count()),
               name + ": every op has a layer split");
        if (name != "npb") {
            expect(err >= 0.0 && err <= kMaxSumError,
                   name + ": layer buckets + other sum to op latency within 1% (max error " +
                       std::to_string(err) + ")");
        }
        if (name == "migrate_churn") {
            expect(layer(t, "balance.steals") > 0.0 && layer(t, "balance.hint") > 0.0,
                   name + ": the balancer steals threads and publishes hints");
        }
    }
    const auto [is, cg] = npb_bench_apps_makespans();
    expect(is == kBenchAppsIs32, "npb: IS@32 makespan " + std::to_string(is) + " == bench_apps " +
                                     std::to_string(kBenchAppsIs32));
    expect(cg == kBenchAppsCg32, "npb: CG@32 makespan " + std::to_string(cg) + " == bench_apps " +
                                     std::to_string(kBenchAppsCg32));
    std::printf("rkobench selftest: %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
}

} // namespace rkobench
