// rkobench command line.
//
//   rkobench --workload <kv_service|npb|migrate_churn> --seed <n>
//            --seconds <s> --trace <0|1>
//   rkobench --selftest
//
// One invocation builds the workload's inputs from --seed and repeats the
// whole workload (fresh machines, same inputs) until --seconds of wall time
// have passed after the first repetition, which also does the seed's
// one-time work (kv_service's capacity search, npb's SMP reference run).
// Virtual-time metrics come from the simulation and must be
// bit-identical across the repetitions; host-time metrics are medians over
// them. --trace 1 alternates untraced and traced repetitions: the traced
// ones record spans around every Guest call into a layer and report the
// per-layer metrics, and the host-time difference is the tracing overhead.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding every
// end-to-end metric (--trace 0) or every per-layer metric the traced
// repetitions produced (--trace 1); run.py keeps the ones BENCHMARK.json
// names and fails the run when one is missing. Any failed output check
// makes the exit status non-zero.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rko/trace/json.hpp"

extern char** environ;

namespace rkobench {
namespace {

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
constexpr double kMaxSumError = 0.01;

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Refuses to run when an RKO_* variable could silently change the program
/// (home shards, workset push, tracing, checks, the race detector, logging):
/// the benchmark measures the compiled defaults and says so in its output.
bool environment_is_clean() {
    bool clean = true;
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "RKO_", 4) == 0) {
            std::fprintf(stderr, "rkobench: refusing to run with %s set\n", *e);
            clean = false;
        }
    }
    return clean;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
    bool ok = true;
};

Args parse(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            a.selftest = true;
            continue;
        }
        if (i + 1 >= argc) {
            a.ok = false;
            break;
        }
        const std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            a.ok = a.ok && *end == '\0';
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            a.ok = a.ok && *end == '\0' && a.seconds > 0;
        } else if (flag == "--trace") {
            a.ok = a.ok && (v == "0" || v == "1");
            a.trace = v == "1";
        } else {
            a.ok = false;
        }
    }
    a.ok = a.ok && (a.selftest || have_workload);
    return a;
}

const Metric* find(const Metrics& m, const std::string& name) {
    for (const auto& [n, metric] : m) {
        if (n == name) return &metric;
    }
    return nullptr;
}

void print_metric(const std::string& name, const Metric& m) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
}

int run(const Args& args) {
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
        if (args.workload == w.name) workload = &w;
    }
    if (workload == nullptr) {
        std::fprintf(stderr, "rkobench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    std::vector<Rep> plain, traced;
    double t0 = 0.0;
    for (std::size_t i = 0; i < kMaxReps; ++i) {
        RunOptions options;
        options.seed = args.seed;
        options.traced = args.trace && i % 2 == 1;
        Rep rep = workload->run(options);
        (options.traced ? traced : plain).push_back(std::move(rep));
        if (i == 0) t0 = host_seconds(HostClock::kWall);
        if (host_seconds(HostClock::kWall) - t0 >= args.seconds && plain.size() >= kMinReps &&
            (!args.trace || !traced.empty())) {
            break;
        }
    }

    // Correctness: every output check of every repetition, plus
    // bit-identical virtual time across repetitions (traced or not).
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    const auto note = [&](const std::string& what) {
        ++failed;
        if (failures.size() < 16) failures.push_back(what);
    };
    const Rep& first = plain.front();
    for (const std::vector<Rep>* reps : {&plain, &traced}) {
        for (const Rep& rep : *reps) {
            attempted += rep.attempted;
            failed += rep.failed;
            for (const auto& f : rep.failures) {
                if (failures.size() < 16) failures.push_back(f);
            }
            if (rep.fingerprint != first.fingerprint) {
                note("virtual-time results differ between repetitions of one seed");
            }
        }
    }
    const Samples& lat = first.latency_us;
    // p999 is reported only when at least ten samples lie beyond it.
    const std::size_t beyond = lat.beyond(99.9);
    const bool has_p999 = beyond >= 10;
    if (!traced.empty()) {
        const Metric* err = find(traced.front().layers, "split.sum_error_max");
        if (err == nullptr || err->value > kMaxSumError) {
            note("layer buckets do not sum to op latency within 1%");
        }
    }

    std::vector<double> host, setup;
    for (const Rep& rep : plain) {
        host.push_back(rep.host_s);
        setup.push_back(rep.setup_s);
    }
    const double host_s = median(host);
    const double makespan_ms = static_cast<double>(first.makespan) / 1e6;

    Metrics e2e;
    put(e2e, "makespan_ms", makespan_ms, "ms");
    put(e2e, "ops_per_ms", static_cast<double>(lat.count()) / makespan_ms, "1/ms");
    put(e2e, "p50_us", lat.percentile(50), "us");
    put(e2e, "p99_us", lat.percentile(99), "us");
    put(e2e, "setup_s", median(setup), "s");
    put(e2e, "peak_rss_mb", peak_rss_mb(), "MiB");

    // Host cost of the simulator. Not gated end to end: on a shared machine
    // its spread between runs is wider than a third of any allowed bound.
    Metrics host_metrics;
    put(host_metrics, "sim.host_s", host_s, "s");
    put(host_metrics, "sim.events", static_cast<double>(first.events), "count");
    put(host_metrics, "sim.events_per_s", static_cast<double>(first.events) / host_s, "1/s");
    put(host_metrics, "sim.host_ns_per_event", host_s * 1e9 / static_cast<double>(first.events), "ns");

    Metrics layers;
    if (!traced.empty()) {
        layers = traced.front().layers;
        std::vector<double> traced_host;
        for (const Rep& rep : traced) traced_host.push_back(rep.host_s);
        for (const auto& m : host_metrics) layers.push_back(m);
        put(layers, "trace.overhead_frac", median(traced_host) / host_s - 1.0, "frac");
        put(layers, "latency.n", static_cast<double>(lat.count()), "count");
        put(layers, "latency.p999_us", has_p999 ? lat.percentile(99.9) : 0.0, "us");
        put(layers, "latency.p999_beyond", static_cast<double>(beyond), "count");
    }

    // Human-readable report: configuration stamp, then every metric.
    std::printf("rkobench workload=%s seed=%llu build=%s reps=%zu traced_reps=%zu "
                "input_hash=%016llx\n",
                workload->name, static_cast<unsigned long long>(args.seed), RKOBENCH_BUILD_TYPE,
                plain.size(), traced.size(), static_cast<unsigned long long>(first.input_hash));
    for (const std::string& m : std::set<std::string>(first.machines.begin(), first.machines.end())) {
        std::printf("machine: %s\n", m.c_str());
    }
    std::printf("end-to-end (latency samples n=%zu, beyond p99=%zu):\n", lat.count(),
                lat.beyond(99));
    for (const auto& [name, m] : e2e) print_metric(name, m);
    if (has_p999) {
        print_metric("p999_us", Metric{lat.percentile(99.9), "us"});
        std::printf("  (%zu samples beyond p999)\n", beyond);
    } else {
        std::printf("  p999_us: not reported, only %zu samples beyond it\n", beyond);
    }
    std::printf("host (CPU seconds of the measured runs, median of %zu):\n", host.size());
    for (const auto& [name, m] : host_metrics) print_metric(name, m);
    std::printf("  host_s per repetition:");
    for (const double h : host) std::printf(" %.4f", h);
    std::printf("\n  setup_s per repetition:");
    for (const double h : setup) std::printf(" %.4f", h);
    std::printf("\nworkload:\n");
    for (const auto& [name, m] : first.virtual_extra) print_metric(name, m);
    if (!traced.empty()) {
        std::printf("per-layer:\n");
        for (const auto& [name, m] : layers) print_metric(name, m);
    }
    for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

    // The result line.
    std::string out;
    rko::trace::JsonWriter w(&out);
    w.begin_object();
    w.kv("correct", failed == 0);
    w.kv("attempted", std::max<std::uint64_t>(attempted, 1));
    w.kv("failed", failed);
    w.key("metrics");
    w.begin_object();
    const auto emit = [&](const std::string& name, double value, const std::string& unit) {
        w.key(name);
        w.begin_object();
        w.kv("value", value);
        w.kv("unit", std::string_view(unit));
        w.end_object();
    };
    for (const auto& [name, m] : args.trace ? layers : e2e) emit(name, m.value, m.unit);
    w.end_object();
    w.end_object();
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

} // namespace

int selftest();

} // namespace rkobench

int main(int argc, char** argv) {
    const rkobench::Args args = rkobench::parse(argc, argv);
    if (!args.ok) {
        std::fprintf(stderr,
                     "usage: rkobench --workload <kv_service|npb|migrate_churn> --seed <n> "
                     "--seconds <s> --trace <0|1>\n       rkobench --selftest\n");
        return 2;
    }
    if (!rkobench::environment_is_clean()) return 2;
    return args.selftest ? rkobench::selftest() : rkobench::run(args);
}
