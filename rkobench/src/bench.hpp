// rkobench: the repository benchmark.
//
// Three workloads drive the public api::Machine / api::Guest facade and
// report end-to-end metrics (virtual time first; host time only for the
// simulator's own cost) plus a per-layer split. The benchmark measures each
// layer from outside: it times the Guest calls that enter the layer, reads
// MigrationBreakdown from Guest::migrate, and reads the machine's counters
// after a run. Nothing under src/ knows it exists.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "rko/api/machine.hpp"
#include "rko/base/stats.hpp"
#include "rko/base/units.hpp"

namespace rkobench {

using rko::Nanos;

/// The two host clocks: wall time bounds a run (--seconds); the process's
/// CPU time (user + system) is what the simulator costs the host, and it
/// stays steady on a shared machine where wall time mostly measures the
/// neighbours.
enum class HostClock { kWall, kCpu };

/// The only host-clock read in the benchmark: host time measures the
/// simulator's own cost, never a simulated result.
double host_seconds(HostClock clock);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Exact nearest-rank percentiles over a sample vector.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    void add_ns(Nanos ns) { values_.push_back(static_cast<double>(ns) / 1000.0); }
    std::size_t count() const { return values_.size(); }
    /// q in [0, 100]; 0 when empty.
    double percentile(double q) const;
    /// Samples strictly above the q-th percentile.
    std::size_t beyond(double q) const;
    const std::vector<double>& values() const { return values_; }

private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = false;
    void sort() const;
};

/// One timed interval recorded by the traced mode. Spans nest: a span's
/// parent is the enclosing span of the same op (-1 for an op's root).
struct Span {
    std::uint32_t name = 0; ///< index into SpanLog::names()
    std::uint32_t op = 0;
    std::int32_t parent = -1;
    Nanos start = 0;
    Nanos end = 0;
};

/// Host-side span recorder. Spans stay in memory and are analysed after
/// the run; recording never touches virtual time, so a traced run's
/// virtual-time metrics equal the untraced run's bit for bit.
class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /// Records a span and returns its index (-1 when disabled).
    std::int32_t record(std::string_view name, std::uint32_t op, std::int32_t parent,
                        Nanos start, Nanos end);
    /// Opens a span whose end is filled in later by close().
    std::int32_t open(std::string_view name, std::uint32_t op, std::int32_t parent,
                      Nanos start) {
        return record(name, op, parent, start, start);
    }
    void close(std::int32_t span, Nanos end) {
        if (span >= 0) spans_[static_cast<std::size_t>(span)].end = end;
    }

    const std::vector<Span>& spans() const { return spans_; }
    const std::vector<std::string>& names() const { return names_; }

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t, std::less<>> ids_;
};

/// Per-layer self time and per-op split derived from a SpanLog.
struct LayerSplit {
    /// Layer name (span name up to the first '.') -> total self time, us.
    std::map<std::string, double> self_us;
    /// Span name -> durations (us) of every span with that name.
    std::map<std::string, Samples> by_name;
    std::size_t ops = 0;
    /// Largest |sum of layer buckets - op latency| / op latency over ops.
    double max_sum_error = 0.0;
};
LayerSplit analyse(const SpanLog& log);

/// Ordered metric bag: name -> (value, unit).
struct Metric {
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

inline void put(Metrics& m, const std::string& name, double value, const char* unit) {
    m.emplace_back(name, Metric{value, unit});
}
/// name.p50, name.p99 and name.n from a sample set.
void put_pcts(Metrics& m, const std::string& name, const Samples& s, const char* unit);

/// The per-layer metrics a workload does not measure: layers it never
/// enters or does not time, and other workloads' own figures. A traced run
/// reports the whole per-layer set, so each workload puts these zeros
/// itself; sample sets get n = 0, which says nothing was measured.
struct Unused {
    std::initializer_list<const char*> sample_sets_us; ///< put_pcts names, unit us
    std::initializer_list<std::pair<const char*, const char*>> values; ///< name, unit
};
void put_unused(Metrics& m, const Unused& unused);

/// What one repetition of a workload produced.
struct Rep {
    double setup_s = 0.0; ///< host: machine boot, process creation, inputs
    double host_s = 0.0;  ///< host: CPU seconds of the measured simulation
    std::uint64_t events = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few check failures
    Nanos makespan = 0;
    Samples latency_us;  ///< per-op latency
    Metrics virtual_extra; ///< workload-specific virtual-time metrics
    Metrics layers;        ///< per-layer metrics (traced mode)
    /// Every virtual-time result folded into one string; equal strings
    /// mean bit-identical virtual behaviour.
    std::string fingerprint;
    std::uint64_t input_hash = 0;
    std::vector<std::string> machines; ///< describe() of each machine run

    void fail(std::string what) {
        ++failed;
        if (failures.size() < 8) failures.push_back(std::move(what));
    }
};

/// Settings shared by every workload run.
struct RunOptions {
    std::uint64_t seed = 1;
    bool traced = false;
    /// Shrinks the workload for the self-test (same code paths).
    bool small = false;
};

struct Workload {
    const char* name;
    Rep (*run)(const RunOptions&);
};

Rep run_kv_service(const RunOptions& options);
Rep run_npb(const RunOptions& options);
Rep run_migrate_churn(const RunOptions& options);

inline const Workload kWorkloads[] = {
    {"kv_service", run_kv_service},
    {"npb", run_npb},
    {"migrate_churn", run_migrate_churn},
};

/// bench_apps cross-check: IS and CG at 32 cores / 8 kernels with bench_apps'
/// sizes and key generation; returns the two Popcorn makespans.
std::pair<Nanos, Nanos> npb_bench_apps_makespans();

/// Host CPU-time stopwatch that accumulates into a double.
class HostTimer {
public:
    explicit HostTimer(double* sink) : sink_(sink), start_(host_seconds(HostClock::kCpu)) {}
    ~HostTimer() { *sink_ += host_seconds(HostClock::kCpu) - start_; }
    HostTimer(const HostTimer&) = delete;
    HostTimer& operator=(const HostTimer&) = delete;

private:
    double* sink_;
    double start_;
};

/// Counter-derived per-layer metrics common to every workload, read after
/// each run from Machine::collect_metrics(), smp::contention_report() and
/// the engine's dispatch count, summed over a workload's machines.
struct MachineLayers {
    std::map<std::string, double> counters;
    std::map<std::string, rko::base::Histogram> histograms;
    std::uint64_t events = 0;

    void absorb(rko::api::Machine& machine, rko::topo::KernelId origin);
    void put(Metrics& m, double ops) const;
};

/// Times one Guest call into a layer as a span: the MMU's batched charges
/// are settled on both sides so the interval is exact. The flushes run in
/// traced and untraced mode alike, so tracing never moves virtual time.
template <typename F>
Nanos timed(SpanLog& log, rko::api::Guest& g, std::string_view name, std::uint32_t op,
            std::int32_t parent, F&& f) {
    g.flush_timing();
    const Nanos t0 = g.now();
    f();
    g.flush_timing();
    const Nanos t1 = g.now();
    log.record(name, op, parent, t0, t1);
    return t1 - t0;
}

/// One "key=value ..." line describing every knob of a machine.
std::string describe(const rko::api::MachineConfig& config);

/// Per-layer metrics from the span analysis (self time per op, split error).
void put_span_layers(Metrics& m, const LayerSplit& split);

/// 64-bit mixing step for input hashes and value checksums.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 29);
}

std::string fingerprint_of(const Samples& s);

} // namespace rkobench
