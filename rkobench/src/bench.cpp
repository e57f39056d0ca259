#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>

#include "rko/smp/smp.hpp"
#include "rko/trace/metrics.hpp"

namespace rkobench {

double host_seconds(HostClock clock) {
    timespec ts{};
    const clockid_t id = clock == HostClock::kCpu ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_MONOTONIC;
    // Host time measures only the simulator's own cost (host_s, setup_s,
    // the --seconds budget); no simulated result ever reads it.
    clock_gettime(id, &ts); // rko-lint: allow(wall-clock): simulator cost only, never a simulated result
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void Samples::sort() const {
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
}

double Samples::percentile(double q) const {
    if (values_.empty()) return 0.0;
    sort();
    const auto n = static_cast<double>(values_.size());
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values_.size());
    return values_[rank - 1];
}

std::size_t Samples::beyond(double q) const {
    const double cut = percentile(q);
    return static_cast<std::size_t>(
        values_.end() - std::upper_bound(values_.begin(), values_.end(), cut));
}

std::string fingerprint_of(const Samples& s) {
    std::uint64_t h = s.count();
    for (const double v : s.values()) h = mix(h, static_cast<std::uint64_t>(std::llround(v * 1000.0)));
    return std::to_string(h);
}

std::int32_t SpanLog::record(std::string_view name, std::uint32_t op, std::int32_t parent,
                             Nanos start, Nanos end) {
    if (!enabled_) return -1;
    auto it = ids_.find(name);
    if (it == ids_.end()) {
        it = ids_.emplace(std::string(name), static_cast<std::uint32_t>(names_.size())).first;
        names_.emplace_back(name);
    }
    spans_.push_back(Span{it->second, op, parent, start, end});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

namespace {

std::string layer_of(const std::string& name) {
    if (name == "op") return "other";
    return name.substr(0, name.find('.'));
}

} // namespace

LayerSplit analyse(const SpanLog& log) {
    LayerSplit split;
    const auto& spans = log.spans();
    const auto& names = log.names();
    // Self time = own duration minus direct children's durations.
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = static_cast<double>(spans[i].end - spans[i].start) / 1000.0;
    }
    for (const Span& s : spans) {
        split.by_name[names[s.name]].add_ns(s.end - s.start);
        if (s.parent < 0) continue;
        self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end - s.start) / 1000.0;
    }
    // Per op: the root's duration is its latency; the buckets are the
    // clamped self times of every span under it. Overlapping or escaping
    // children drive a self time negative, which the clamp turns into a
    // sum that no longer matches the latency.
    std::map<std::int32_t, double> bucket_sum;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::int32_t r = static_cast<std::int32_t>(i);
        while (spans[static_cast<std::size_t>(r)].parent >= 0) {
            r = spans[static_cast<std::size_t>(r)].parent;
        }
        if (names[spans[static_cast<std::size_t>(r)].name] != "op") continue;
        const double s = std::max(0.0, self[i]);
        bucket_sum[r] += s;
        split.self_us[layer_of(names[spans[i].name])] += s;
    }
    for (const auto& [root, sum] : bucket_sum) {
        const Span& r = spans[static_cast<std::size_t>(root)];
        const double latency = static_cast<double>(r.end - r.start) / 1000.0;
        ++split.ops;
        if (latency > 0.0) {
            split.max_sum_error = std::max(split.max_sum_error, std::fabs(sum - latency) / latency);
        }
    }
    return split;
}

std::string describe(const rko::api::MachineConfig& c) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "ncores=%d nkernels=%d frames_per_kernel=%zu seed=%llu read_replication=%d "
                  "prefetch_window=%d futex_hierarchy=%d futex_handoff_cap=%u home_shards=%d "
                  "workset_push=%d trace=%d check=%d shuffle_ties=%d balance=%s elastic=%d",
                  c.ncores, c.nkernels, c.frames_per_kernel,
                  static_cast<unsigned long long>(c.seed), c.read_replication ? 1 : 0,
                  c.prefetch_window, c.futex_hierarchy ? 1 : 0, c.futex_handoff_cap,
                  c.home_shards, c.workset_push, c.trace.enabled ? 1 : 0, c.check ? 1 : 0,
                  c.shuffle_ties ? 1 : 0, rko::balance::policy_name(c.balance.policy),
                  c.elastic.enabled ? 1 : 0);
    return buf;
}

void put_pcts(Metrics& m, const std::string& name, const Samples& s, const char* unit) {
    put(m, name + ".p50", s.percentile(50), unit);
    put(m, name + ".p99", s.percentile(99), unit);
    put(m, name + ".n", static_cast<double>(s.count()), "count");
}

void put_unused(Metrics& m, const Unused& unused) {
    for (const char* name : unused.sample_sets_us) put_pcts(m, name, Samples{}, "us");
    for (const auto& [name, unit] : unused.values) put(m, name, 0.0, unit);
}

void put_span_layers(Metrics& m, const LayerSplit& split) {
    const double ops = std::max<double>(1.0, static_cast<double>(split.ops));
    for (const char* layer : {"ingress", "dfutex", "page_owner", "vma_server", "migration",
                              "thread_group", "sched", "other"}) {
        const auto it = split.self_us.find(layer);
        put(m, std::string("split.") + layer + "_us_per_op",
            it == split.self_us.end() ? 0.0 : it->second / ops, "us");
    }
    put(m, "split.ops", static_cast<double>(split.ops), "count");
    put(m, "split.sum_error_max", split.max_sum_error, "frac");
}

namespace {

double counter(const rko::trace::MetricsRegistry& r, const char* name) {
    const auto* c = r.find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value);
}

double gauge(const rko::trace::MetricsRegistry& r, const std::string& name) {
    const auto* g = r.find_gauge(name);
    return g == nullptr ? 0.0 : g->value;
}

double frac(double num, double den) { return den > 0.0 ? num / den : 0.0; }

} // namespace

void MachineLayers::absorb(rko::api::Machine& machine, rko::topo::KernelId origin) {
    const rko::trace::MetricsRegistry r = machine.collect_metrics();
    const rko::smp::ContentionReport contention = rko::smp::contention_report(machine);
    for (const char* name :
         {"pages.remote_faults", "pages.invalidations", "pages.fetches", "pages.range_rpcs",
          "pages.prefetch.hit", "pages.prefetch.issued", "home.msgs", "vma.remote_ops",
          "futex.local_handoffs", "futex.remote_grants", "migration.workset.hit",
          "migration.workset.pushed", "sched.context_switches", "balance.steals",
          "balance.pushes", "balance.hints", "msg.sent", "msg.bytes", "msg.rpc_failures"}) {
        counters[name] += counter(r, name);
    }
    counters["home.origin_msgs"] += gauge(r, "home.msgs_per_kernel.k" + std::to_string(origin));
    counters["msg.backpressure_ns"] += gauge(r, "msg.backpressure_ns");
    counters["mem.mmap_lock_wait_ns"] += static_cast<double>(contention.mmap_locks);
    counters["mem.frame_alloc_wait_ns"] += static_cast<double>(contention.frame_allocator);
    counters["sched.rq_lock_wait_ns"] += static_cast<double>(contention.runqueue);
    for (const char* name : {"pages.remote_fault_ns", "sched.acquire_wait_ns", "msg.delivery_ns",
                             "msg.scatter.wait_ns"}) {
        if (const auto* h = r.find_histogram(name)) histograms[name].merge(*h);
    }
    events += machine.engine().dispatch_count();
}

void MachineLayers::put(Metrics& m, double ops) const {
    const auto c = [&](const char* name) {
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    const auto hist = [&](const std::string& out, const char* name, bool p50) {
        const auto it = histograms.find(name);
        const rko::base::Histogram empty;
        const rko::base::Histogram& h = it == histograms.end() ? empty : it->second;
        if (p50) rkobench::put(m, out + ".p50", static_cast<double>(h.percentile(50)) / 1000.0, "us");
        rkobench::put(m, out + ".p99", static_cast<double>(h.percentile(99)) / 1000.0, "us");
        rkobench::put(m, out + ".n", static_cast<double>(h.count()), "count");
    };
    ops = std::max(1.0, ops);
    rkobench::put(m, "dfutex.local_handoff_frac",
                  frac(c("futex.local_handoffs"), c("futex.local_handoffs") + c("futex.remote_grants")),
                  "frac");
    rkobench::put(m, "dfutex.remote_grants", c("futex.remote_grants"), "count");
    rkobench::put(m, "page_owner.remote_faults", c("pages.remote_faults"), "count");
    hist("page_owner.remote_fault_us", "pages.remote_fault_ns", true);
    rkobench::put(m, "page_owner.invalidations", c("pages.invalidations"), "count");
    rkobench::put(m, "page_owner.fetches", c("pages.fetches"), "count");
    rkobench::put(m, "page_owner.range_rpcs", c("pages.range_rpcs"), "count");
    rkobench::put(m, "page_owner.prefetch_hit_frac",
                  frac(c("pages.prefetch.hit"), c("pages.prefetch.issued")), "frac");
    rkobench::put(m, "home.msgs", c("home.msgs"), "count");
    rkobench::put(m, "home.origin_share", frac(c("home.origin_msgs"), c("home.msgs")), "frac");
    rkobench::put(m, "vma_server.remote_ops", c("vma.remote_ops"), "count");
    rkobench::put(m, "mem.mmap_lock_wait_us", c("mem.mmap_lock_wait_ns") / 1000.0, "us");
    rkobench::put(m, "mem.frame_alloc_wait_us", c("mem.frame_alloc_wait_ns") / 1000.0, "us");
    rkobench::put(m, "migration.workset_hit_frac",
                  frac(c("migration.workset.hit"), c("migration.workset.pushed")), "frac");
    hist("sched.acquire_wait_us", "sched.acquire_wait_ns", true);
    rkobench::put(m, "sched.rq_lock_wait_us", c("sched.rq_lock_wait_ns") / 1000.0, "us");
    rkobench::put(m, "sched.context_switches", c("sched.context_switches"), "count");
    rkobench::put(m, "balance.steals", c("balance.steals"), "count");
    rkobench::put(m, "balance.pushes", c("balance.pushes"), "count");
    rkobench::put(m, "balance.hint", c("balance.hints"), "count");
    rkobench::put(m, "msg.sent_per_op", c("msg.sent") / ops, "msgs");
    rkobench::put(m, "msg.bytes_per_op", c("msg.bytes") / ops, "bytes");
    hist("msg.delivery_us", "msg.delivery_ns", true);
    rkobench::put(m, "msg.backpressure_us", c("msg.backpressure_ns") / 1000.0, "us");
    hist("msg.scatter_wait_us", "msg.scatter.wait_ns", false);
    rkobench::put(m, "msg.rpc_failures", c("msg.rpc_failures"), "count");
}

} // namespace rkobench
