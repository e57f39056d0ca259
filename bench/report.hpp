// Machine-readable bench output.
//
// Every bench binary accepts --json=<path> and, when given, writes one JSON
// document describing its results in the rko-metrics-v1 schema:
//
//   {
//     "bench": "bench_migration",
//     "schema": "rko-metrics-v1",
//     "metrics": {
//       "phase.checkpoint_ns": {"type": "histogram", "count": ..., "mean": ...,
//                               "min": ..., "max": ..., "p50": ..., "p90": ...,
//                               "p99": ...},
//       "msg.sent": {"type": "counter", "value": ...},
//       ...
//     }
//   }
//
// All durations are virtual-time nanoseconds (names end in _ns). run_benches.sh
// collects the per-bench files into BENCH_results.json.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "harness.hpp"
#include "rko/home/home.hpp"
#include "rko/trace/json.hpp"
#include "rko/trace/metrics.hpp"

namespace rko::bench {

class Reporter {
public:
    Reporter(const Args& args, std::string bench_name)
        : bench_(std::move(bench_name)), path_(args.get_str("json", "")) {}
    Reporter(const Reporter&) = delete;
    Reporter& operator=(const Reporter&) = delete;
    ~Reporter() { write(); }

    /// False when --json was not given; adds still accumulate (cheap), the
    /// file is just never written.
    bool enabled() const { return !path_.empty(); }

    trace::MetricsRegistry& metrics() { return metrics_; }

    /// Folds a whole registry in — e.g. Machine::collect_metrics().
    void merge(const trace::MetricsRegistry& other) { metrics_.merge_from(other); }

    void add_histogram(std::string_view name, const base::Histogram& h) {
        metrics_.histogram(name).merge(h);
    }
    void add_summary(std::string_view name, const base::Summary& s) {
        metrics_.counter(std::string(name) + ".count").inc(s.count());
        metrics_.gauge(std::string(name) + ".mean").set(s.mean());
        metrics_.gauge(std::string(name) + ".min").set(s.min());
        metrics_.gauge(std::string(name) + ".max").set(s.max());
    }
    void add_counter(std::string_view name, std::uint64_t value) {
        metrics_.counter(name).inc(value);
    }
    void add_gauge(std::string_view name, double value) {
        metrics_.gauge(name).set(value);
    }

    /// Writes the JSON file (idempotent; also runs at destruction).
    void write() {
        if (written_ || path_.empty()) return;
        written_ = true;
        std::string out;
        trace::JsonWriter w(&out);
        w.begin_object();
        w.kv("bench", bench_);
        w.kv("schema", "rko-metrics-v1");
        // Run metadata: the machine-wide home-shard default this bench ran
        // under (RKO_HOME_SHARDS; sections that sweep shard counts override
        // per-machine and say so in their metric names). Comparing JSONs
        // from different shard settings is comparing different machines.
        w.kv("home_shards", home::shards_from_env());
        w.key("metrics");
        metrics_.write_json(w);
        w.end_object();
        out += '\n';
        std::FILE* f = std::fopen(path_.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "%s: cannot open --json output %s\n", bench_.c_str(),
                         path_.c_str());
            return;
        }
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
        std::printf("\n[%s] metrics JSON written to %s\n", bench_.c_str(),
                    path_.c_str());
    }

private:
    std::string bench_;
    std::string path_;
    trace::MetricsRegistry metrics_;
    bool written_ = false;
};

} // namespace rko::bench
