// kv_service: an open-loop request service in virtual time.
//
// Each kernel runs one ingress thread that replays a seeded arrival
// schedule and hands requests to a local worker pool through a futex-woken
// ring. Requests are gets and puts on a shared, Zipf-skewed KV segment
// (values of 1-8 pages). Gets read under a seqlock, so values replicate
// read-only across kernels; puts take the bucket's futex mutex and write
// every page, invalidating the replicas. Some requests also spawn and join
// a helper thread on another kernel, and some map, touch and unmap a
// scratch buffer. The schedule has two phases: read-heavy, then
// write-heavy on a shifted hot set. Latency runs from a request's due time
// to its reply.
//
// Every value page carries (key, version) stamps; each get verifies them,
// and after the run the versions must equal the number of puts per key.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>

#include "bench.hpp"
#include "rko/base/rng.hpp"

namespace rkobench {
namespace {

using rko::api::Guest;
using rko::api::Machine;
using rko::api::MachineConfig;
using rko::api::Thread;
using rko::mem::kPageSize;
using rko::mem::Vaddr;

constexpr int kCores = 16;
constexpr int kKernels = 4;
constexpr int kWorkersPerKernel = 4;
constexpr std::uint32_t kKeys = 2048;
constexpr std::uint32_t kBuckets = 1024;
constexpr std::uint32_t kMaxValuePages = 8;
// The key skew and the two read/write mixes follow YCSB (Cooper et al.,
// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010): its default
// Zipfian constant 0.99, workload B (95% reads) and workload A (50% reads).
constexpr double kZipfS = 0.99;
constexpr double kReadFrac[2] = {0.95, 0.50};
// The rest is this benchmark's own choice, not taken from a source: small
// fractions of requests that enter the thread-group and VMA layers, and a
// service cost that keeps compute below the memory and futex costs.
constexpr double kHelperFrac = 0.02;
constexpr double kScratchFrac = 0.03;
constexpr std::uint32_t kRingSlots = 16384;
constexpr Nanos kServiceBaseNs = 2000;  ///< request parsing + reply
constexpr Nanos kServicePerPageNs = 500; ///< per value page (hash, copy)
constexpr Nanos kHelperComputeNs = 3000;

// Guest-memory layout of a value's first page (header) and of every page.
constexpr Vaddr kSeqOff = 0;   ///< seqlock word, odd while a put runs
constexpr Vaddr kKeyOff = 8;
constexpr Vaddr kVerOff = 16;
constexpr Vaddr kPagesOff = 24;
constexpr Vaddr kStampOff = 64; ///< per-page (key, version, page) stamp

// Per-kernel ring control page.
constexpr Vaddr kHeadOff = 0;
constexpr Vaddr kTailOff = 64;
constexpr Vaddr kSleepersOff = 128;
constexpr Vaddr kDoneOff = 192;
/// Futex word: bumped on every enqueue and at shutdown. A worker reads it
/// before it looks at the ring, so an enqueue or the shutdown that lands
/// between that look and its futex_wait changes the word and the wait
/// returns at once instead of missing the wake.
constexpr Vaddr kEpochOff = 256;

enum class Op : std::uint8_t { kGet, kPut };

struct Request {
    Nanos due = 0;
    std::uint32_t key = 0;
    Op op = Op::kGet;
    std::uint8_t phase = 0;
    std::uint8_t kernel = 0;        ///< ingress kernel
    std::int8_t helper_kernel = -1; ///< -1: no helper
    std::uint8_t scratch_pages = 0; ///< 0: no scratch buffer
};

struct Inputs {
    std::vector<std::uint32_t> value_pages; ///< per key, 1..8
    std::vector<Vaddr> value_off;           ///< per key, page offset in the segment
    std::uint64_t segment_pages = 0;
    std::vector<Request> requests;          ///< sorted by (kernel, due)
    std::vector<std::vector<std::uint32_t>> by_kernel;
    std::vector<std::uint32_t> puts_per_key;
    std::uint64_t hash = 0;
};

std::uint64_t stamp(std::uint32_t key, std::uint32_t version, std::uint32_t page) {
    return mix(mix(0x6b76ULL, key), (static_cast<std::uint64_t>(version) << 8) | page);
}

/// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
public:
    Zipf(std::uint32_t n, double s) : cdf_(n) {
        double total = 0.0;
        for (std::uint32_t i = 0; i < n; ++i) {
            total += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf_[i] = total;
        }
        for (double& c : cdf_) c /= total;
    }
    std::uint32_t sample(rko::base::Rng& rng) const {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<std::uint32_t>(std::min<std::ptrdiff_t>(
            it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    }

private:
    std::vector<double> cdf_;
};

Inputs make_inputs(std::uint64_t seed, double rate_per_ms, Nanos duration) {
    Inputs in;
    rko::base::Rng rng(mix(seed, 0x6b765f73ULL));
    in.value_pages.resize(kKeys);
    in.value_off.resize(kKeys);
    // Rank -> key: a seeded permutation; the write-heavy phase rotates it so
    // its hot set lands on keys the read phase left cold.
    std::vector<std::uint32_t> perm(kKeys);
    for (std::uint32_t k = 0; k < kKeys; ++k) perm[k] = k;
    for (std::uint32_t k = kKeys - 1; k > 0; --k) {
        std::swap(perm[k], perm[rng.below(k + 1)]);
    }
    // A value's size follows its read-phase popularity rank (1..8 pages
    // cycling down the ranks), so every seed puts the same size mix at
    // every popularity level; the seed picks which keys and where they live.
    for (std::uint32_t rank = 0; rank < kKeys; ++rank) {
        in.value_pages[perm[rank]] = 1 + rank % kMaxValuePages;
    }
    for (std::uint32_t k = 0; k < kKeys; ++k) {
        in.value_off[k] = in.segment_pages;
        in.segment_pages += in.value_pages[k];
    }
    const Zipf zipf(kKeys, kZipfS);
    const double per_kernel_rate = rate_per_ms / kKernels / 1e6; // per ns
    for (int kern = 0; kern < kKernels; ++kern) {
        double t = 0.0;
        for (;;) {
            t += -std::log(1.0 - rng.uniform()) / per_kernel_rate;
            const auto due = static_cast<Nanos>(t);
            if (due >= duration) break;
            Request r;
            r.due = due;
            r.kernel = static_cast<std::uint8_t>(kern);
            r.phase = due < duration / 2 ? 0 : 1;
            const std::uint32_t rank = zipf.sample(rng);
            r.key = perm[(rank + (r.phase == 0 ? 0 : kKeys / 3)) % kKeys];
            r.op = rng.chance(kReadFrac[r.phase]) ? Op::kGet : Op::kPut;
            if (rng.chance(kHelperFrac)) {
                r.helper_kernel =
                    static_cast<std::int8_t>((kern + 1 + static_cast<int>(rng.below(kKernels - 1))) %
                                             kKernels);
            }
            if (rng.chance(kScratchFrac)) {
                r.scratch_pages = static_cast<std::uint8_t>(1 + rng.below(8));
            }
            in.requests.push_back(r);
        }
    }
    in.by_kernel.resize(kKernels);
    in.puts_per_key.assign(kKeys, 0);
    in.hash = mix(seed, in.requests.size());
    for (std::uint32_t i = 0; i < in.requests.size(); ++i) {
        const Request& r = in.requests[i];
        in.by_kernel[r.kernel].push_back(i);
        if (r.op == Op::kPut) ++in.puts_per_key[r.key];
        in.hash = mix(in.hash, (static_cast<std::uint64_t>(r.due) << 16) ^ (r.key << 2) ^
                                   static_cast<std::uint64_t>(r.op));
    }
    return in;
}

/// Per-request results written by guest code (host-side bookkeeping).
struct Outcome {
    Nanos enqueued = -1;
    Nanos dequeued = -1;
    Nanos replied = -1;
    bool ok = true;
};

class Service {
public:
    Service(const Inputs& in, SpanLog& log) : in_(in), log_(log), out_(in.requests.size()) {}

    /// Runs one full service instance on `machine`; setup (boot, process
    /// creation, value population) accrues into *setup_s and the serving
    /// run into *host_s.
    void run(Machine& machine, double* setup_s, double* host_s) {
        auto& process = [&]() -> rko::api::Process& {
            HostTimer t(setup_s);
            auto& p = machine.create_process(0);
            p.spawn([this](Guest& g) { populate(g); }, 0);
            machine.run();
            for (int k = 0; k < kKernels; ++k) {
                const auto kid = static_cast<rko::topo::KernelId>(k);
                p.spawn([this, k](Guest& g) { ingress(g, k); }, kid);
                for (int w = 0; w < kWorkersPerKernel; ++w) {
                    p.spawn([this, k](Guest& g) { worker(g, k); }, kid);
                }
            }
            return p;
        }();
        {
            HostTimer t(host_s);
            start_ = machine.now();
            machine.run();
        }
        process.spawn([this](Guest& g) { verify_versions(g); }, 0);
        machine.run();
        process.check_all_joined();
        for (const auto& thread : process.threads()) {
            if (thread->exit_status() != 0) bad("thread exited with status " +
                                                std::to_string(thread->exit_status()));
        }
    }

    Nanos start() const { return start_; }
    const std::vector<Outcome>& outcomes() const { return out_; }
    const std::vector<std::string>& problems() const { return problems_; }
    std::uint64_t problem_count() const { return problem_count_; }
    std::uint64_t retries() const { return retries_; }
    const Samples& stretch() const { return stretch_; }

private:
    Vaddr value(std::uint32_t key) const { return segment_ + in_.value_off[key] * kPageSize; }
    Vaddr ctrl(int k) const { return rings_ + static_cast<Vaddr>(k) * (1 + kRingPages) * kPageSize; }
    Vaddr slot(int k, std::uint32_t i) const {
        return ctrl(k) + kPageSize + static_cast<Vaddr>(i % kRingSlots) * 4;
    }
    Vaddr lock(std::uint32_t key) const {
        return locks_ + static_cast<Vaddr>(key % kBuckets) * kPageSize;
    }
    void bad(std::string what) {
        if (problems_.size() < 8) problems_.push_back(std::move(what));
        ++problem_count_;
    }

    void populate(Guest& g) {
        segment_ = g.mmap(in_.segment_pages * kPageSize);
        locks_ = g.mmap(static_cast<std::uint64_t>(kBuckets) * kPageSize);
        rings_ = g.mmap(static_cast<std::uint64_t>(kKernels) * (1 + kRingPages) * kPageSize);
        if (segment_ == 0 || locks_ == 0 || rings_ == 0) {
            bad("populate: mmap failed");
            return;
        }
        for (std::uint32_t key = 0; key < kKeys; ++key) {
            const Vaddr v = value(key);
            g.write<std::uint64_t>(v + kKeyOff, key);
            g.write<std::uint64_t>(v + kVerOff, 0);
            g.write<std::uint64_t>(v + kPagesOff, in_.value_pages[key]);
            for (std::uint32_t p = 0; p < in_.value_pages[key]; ++p) {
                g.write<std::uint64_t>(v + p * kPageSize + kStampOff, stamp(key, 0, p));
            }
        }
    }

    void ingress(Guest& g, int k) {
        const Vaddr c = ctrl(k);
        for (const std::uint32_t idx : in_.by_kernel[static_cast<std::size_t>(k)]) {
            const Nanos due = start_ + in_.requests[idx].due;
            if (due > g.now()) g.compute(due - g.now());
            const std::uint32_t tail = g.read<std::uint32_t>(c + kTailOff);
            while (tail - g.read<std::uint32_t>(c + kHeadOff) >= kRingSlots) g.compute(1000);
            g.write<std::uint32_t>(slot(k, tail), idx);
            // Stamp before publishing: a worker may take the request the
            // moment the tail moves.
            g.flush_timing();
            out_[idx].enqueued = g.now();
            g.write<std::uint32_t>(c + kTailOff, tail + 1);
            g.rmw_u32(c + kEpochOff, [](std::uint32_t v) { return v + 1; });
            if (g.read<std::uint32_t>(c + kSleepersOff) > 0) {
                timed(log_, g, "dfutex.wake", idx, -1, [&] { g.futex_wake(c + kEpochOff, 1); });
            }
        }
        g.write<std::uint32_t>(c + kDoneOff, 1);
        g.rmw_u32(c + kEpochOff, [](std::uint32_t v) { return v + 1; });
        g.futex_wake(c + kEpochOff, std::numeric_limits<std::int32_t>::max());
    }

    void worker(Guest& g, int k) {
        const Vaddr c = ctrl(k);
        for (;;) {
            const std::uint32_t epoch = g.read<std::uint32_t>(c + kEpochOff);
            const std::uint32_t head = g.read<std::uint32_t>(c + kHeadOff);
            const std::uint32_t tail = g.read<std::uint32_t>(c + kTailOff);
            if (head == tail) {
                if (g.read<std::uint32_t>(c + kDoneOff) != 0) return;
                g.rmw_u32(c + kSleepersOff, [](std::uint32_t v) { return v + 1; });
                timed(log_, g, "dfutex.wait", kNoOp, -1, [&] { g.futex_wait(c + kEpochOff, epoch); });
                g.rmw_u32(c + kSleepersOff, [](std::uint32_t v) { return v - 1; });
                continue;
            }
            if (g.cas_u32(c + kHeadOff, head, head + 1) != head) continue;
            const std::uint32_t idx = g.read<std::uint32_t>(slot(k, head));
            serve(g, idx);
        }
    }

    void serve(Guest& g, std::uint32_t idx) {
        const Request& r = in_.requests[idx];
        Outcome& o = out_[idx];
        g.flush_timing();
        o.dequeued = g.now();
        const Nanos due = start_ + r.due;
        const std::int32_t root = log_.open("op", idx, -1, due);
        log_.record("ingress.late", idx, root, due, o.enqueued);
        log_.record("ingress.queue", idx, root, o.enqueued, o.dequeued);

        if (r.op == Op::kGet) {
            get(g, idx, root);
        } else {
            put(g, idx, root);
        }
        const Nanos service = kServiceBaseNs + kServicePerPageNs * in_.value_pages[r.key];
        const Nanos took = timed(log_, g, "sched.compute", idx, root, [&] { g.compute(service); });
        if (log_.enabled()) stretch_.add(static_cast<double>(took) / static_cast<double>(service));

        if (r.helper_kernel >= 0) {
            Thread* helper = nullptr;
            const Vaddr v = value(r.key);
            timed(log_, g, "thread_group.spawn_remote", idx, root, [&] {
                helper = &g.spawn(
                    [v](Guest& hg) {
                        hg.read<std::uint64_t>(v + kKeyOff);
                        hg.compute(kHelperComputeNs);
                    },
                    r.helper_kernel);
            });
            timed(log_, g, "thread_group.join", idx, root, [&] { g.join(*helper); });
            if (helper->exit_status() != 0) o.ok = false;
        }
        if (r.scratch_pages > 0) {
            const std::uint64_t len = static_cast<std::uint64_t>(r.scratch_pages) * kPageSize;
            Vaddr buf = 0;
            timed(log_, g, "vma_server.mmap", idx, root, [&] { buf = g.mmap(len); });
            if (buf == 0) {
                o.ok = false;
            } else {
                for (std::uint32_t p = 0; p < r.scratch_pages; ++p) {
                    timed(log_, g, "page_owner.touch", idx, root,
                          [&] { g.write<std::uint64_t>(buf + p * kPageSize, stamp(idx, 1, p)); });
                }
                for (std::uint32_t p = 0; p < r.scratch_pages; ++p) {
                    if (g.read<std::uint64_t>(buf + p * kPageSize) != stamp(idx, 1, p)) o.ok = false;
                }
                int rc = -1;
                timed(log_, g, "vma_server.munmap", idx, root, [&] { rc = g.munmap(buf, len); });
                if (rc != 0) o.ok = false;
            }
        }
        g.flush_timing();
        o.replied = g.now();
        log_.close(root, o.replied);
    }

    void get(Guest& g, std::uint32_t idx, std::int32_t root) {
        const std::uint32_t key = in_.requests[idx].key;
        const Vaddr v = value(key);
        const std::uint32_t npages = in_.value_pages[key];
        for (int attempt = 0; attempt < 10000; ++attempt) {
            std::uint64_t s1 = 0;
            timed(log_, g, "page_owner.touch", idx, root,
                  [&] { s1 = g.read<std::uint64_t>(v + kSeqOff); });
            if (s1 & 1) {
                ++retries_;
                g.compute(500);
                continue;
            }
            const auto k = g.read<std::uint64_t>(v + kKeyOff);
            const auto ver = static_cast<std::uint32_t>(g.read<std::uint64_t>(v + kVerOff));
            const auto n = g.read<std::uint64_t>(v + kPagesOff);
            bool consistent = k == key && n == npages;
            for (std::uint32_t p = 0; p < npages; ++p) {
                std::uint64_t s = 0;
                timed(log_, g, "page_owner.touch", idx, root,
                      [&] { s = g.read<std::uint64_t>(v + p * kPageSize + kStampOff); });
                consistent = consistent && s == stamp(key, ver, p);
            }
            if (g.read<std::uint64_t>(v + kSeqOff) != s1) {
                ++retries_;
                continue;
            }
            if (!consistent) out_[idx].ok = false;
            return;
        }
        out_[idx].ok = false;
    }

    void put(Guest& g, std::uint32_t idx, std::int32_t root) {
        const std::uint32_t key = in_.requests[idx].key;
        const Vaddr v = value(key);
        timed(log_, g, "dfutex.mutex_lock", idx, root, [&] { g.mutex_lock(lock(key)); });
        std::uint64_t seq = 0;
        timed(log_, g, "page_owner.touch", idx, root, [&] {
            seq = g.read<std::uint64_t>(v + kSeqOff);
            g.write<std::uint64_t>(v + kSeqOff, seq + 1);
        });
        const auto ver = static_cast<std::uint32_t>(g.read<std::uint64_t>(v + kVerOff) + 1);
        g.write<std::uint64_t>(v + kVerOff, ver);
        if (g.read<std::uint64_t>(v + kKeyOff) != key) out_[idx].ok = false;
        for (std::uint32_t p = 0; p < in_.value_pages[key]; ++p) {
            timed(log_, g, "page_owner.touch", idx, root, [&] {
                g.write<std::uint64_t>(v + p * kPageSize + kStampOff, stamp(key, ver, p));
            });
        }
        g.write<std::uint64_t>(v + kSeqOff, seq + 2);
        timed(log_, g, "dfutex.unlock", idx, root, [&] { g.mutex_unlock(lock(key)); });
    }

    void verify_versions(Guest& g) {
        for (std::uint32_t key = 0; key < kKeys; ++key) {
            const Vaddr v = value(key);
            const auto ver = g.read<std::uint64_t>(v + kVerOff);
            const auto seq = g.read<std::uint64_t>(v + kSeqOff);
            if (ver != in_.puts_per_key[key] || seq != 2 * ver) {
                bad("key " + std::to_string(key) + ": version " + std::to_string(ver) +
                    ", expected " + std::to_string(in_.puts_per_key[key]));
            }
        }
    }

    static constexpr std::uint32_t kNoOp = std::numeric_limits<std::uint32_t>::max();
    static constexpr std::uint64_t kRingPages = kRingSlots * 4 / kPageSize;

    const Inputs& in_;
    SpanLog& log_;
    std::vector<Outcome> out_;
    Vaddr segment_ = 0, locks_ = 0, rings_ = 0;
    Nanos start_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t problem_count_ = 0;
    std::vector<std::string> problems_;
    Samples stretch_;
};

MachineConfig kv_machine(std::uint64_t seed) {
    MachineConfig config;
    config.ncores = kCores;
    config.nkernels = kKernels;
    config.seed = seed;
    // The balancer stays at its default (none): with any policy this
    // workload trips a stale-permit defect in the balancer's tick actor
    // (Balancer::doorbell unparks it twice; the second unpark leaves a
    // permit that a later SpinLock park consumes without the lock).
    config.balance.policy = rko::balance::Policy::kNone;
    return config;
}

/// One service instance at `rate`; fills latency/outcome facts.
struct Probe {
    Nanos makespan = 0;
    Samples latency_us, write_us;
    Samples phase_us[2];
    Samples queue_us, late_us;
    Nanos drain = 0; ///< last reply - last due
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
};

Probe probe(const Inputs& in, std::uint64_t seed, SpanLog& log, Rep* rep, MachineLayers* layers) {
    double setup = 0.0, host = 0.0;
    std::unique_ptr<Machine> owned;
    {
        HostTimer t(&setup);
        owned = std::make_unique<Machine>(kv_machine(seed));
    }
    Machine& machine = *owned;
    Service service(in, log);
    service.run(machine, &setup, &host);
    Probe p;
    Nanos last_reply = 0, last_due = 0;
    for (std::size_t i = 0; i < in.requests.size(); ++i) {
        const Request& r = in.requests[i];
        const Outcome& o = service.outcomes()[i];
        ++p.attempted;
        if (o.replied < 0 || !o.ok) {
            ++p.failed;
            if (p.failures.size() < 4) p.failures.push_back("request " + std::to_string(i) + " failed its check");
            continue;
        }
        const Nanos due = service.start() + r.due;
        const Nanos lat = o.replied - due;
        p.latency_us.add_ns(lat);
        p.phase_us[r.phase].add_ns(lat);
        if (r.op == Op::kPut) p.write_us.add_ns(lat);
        p.queue_us.add_ns(o.dequeued - o.enqueued);
        p.late_us.add_ns(o.enqueued - due);
        last_reply = std::max(last_reply, o.replied);
        last_due = std::max(last_due, due);
    }
    p.failed += service.problem_count();
    for (const auto& problem : service.problems()) p.failures.push_back(problem);
    p.makespan = last_reply - service.start();
    p.drain = last_reply - last_due;
    if (rep != nullptr) {
        rep->setup_s += setup;
        rep->host_s += host;
        rep->events += machine.engine().dispatch_count();
        rep->machines.push_back(describe(machine.config()));
        if (log.enabled()) {
            put_pcts(rep->layers, "sched.compute_stretch", service.stretch(), "ratio");
            put(rep->layers, "kv.seqlock_retries", static_cast<double>(service.retries()), "count");
        }
    }
    if (layers != nullptr) layers->absorb(machine, 0);
    return p;
}

/// Latency limit of the capacity search: the highest offered rate whose
/// p99 stays within it (and whose backlog drains within it) is
/// kv.max_rate_kops.
constexpr double kP99LimitUs = 1000.0;
constexpr std::size_t kProbeRequests = 8000;

struct KvParams {
    /// Fixed offered rate, requests per virtual ms: about two thirds of
    /// kv.max_rate_kops, which is 140-158 on seeds 1-10 (median 146). It is
    /// a constant, not a share of each run's own capacity, so that a change
    /// that moves capacity is measured at the same load. Every repetition
    /// checks that it stays below that seed's max_rate.
    double rate_per_ms = 100.0;
    Nanos duration = 300'000'000;
};

KvParams kv_params(bool small) {
    KvParams p;
    if (small) p.duration = 10'000'000;
    return p;
}

/// Capacity search: bisection over a 4%-step geometric rate grid. Each
/// probe replays a schedule of about kProbeRequests requests at its rate.
/// Returns 0 when even the grid's lowest rate misses the limit.
double max_rate(std::uint64_t seed, std::size_t probe_requests) {
    constexpr double kLo = 25.0, kStep = 1.04;
    constexpr int kGrid = 64;
    const auto rate_at = [](int i) { return kLo * std::pow(kStep, i); };
    const auto meets = [&](int i) {
        const double rate = rate_at(i);
        const auto duration = static_cast<Nanos>(static_cast<double>(probe_requests) / rate * 1e6);
        const Inputs in = make_inputs(seed, rate, duration);
        SpanLog off(false);
        const Probe p = probe(in, seed, off, nullptr, nullptr);
        return p.failed == 0 && p.latency_us.percentile(99) <= kP99LimitUs &&
               static_cast<double>(p.drain) <= kP99LimitUs * 1000.0;
    };
    if (!meets(0)) return 0.0;
    int lo = 0, hi = kGrid; // invariant: lo meets, hi does not
    while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        (meets(mid) ? lo : hi) = mid;
    }
    return rate_at(lo);
}

/// max_rate for a seed, searched once per process: it is deterministic, and
/// every repetition checks the fixed offered rate against it.
double capacity(std::uint64_t seed, bool small) {
    static std::map<std::pair<std::uint64_t, bool>, double> found;
    auto it = found.find({seed, small});
    if (it == found.end()) {
        it = found.emplace(std::make_pair(seed, small),
                           max_rate(seed, small ? kProbeRequests / 4 : kProbeRequests))
                 .first;
    }
    return it->second;
}

} // namespace

Rep run_kv_service(const RunOptions& options) {
    const KvParams params = kv_params(options.small);
    Rep rep;
    Inputs in;
    {
        HostTimer t(&rep.setup_s);
        in = make_inputs(options.seed, params.rate_per_ms, params.duration);
    }
    rep.input_hash = in.hash;
    SpanLog log(options.traced);
    MachineLayers layers;
    const Probe p = probe(in, options.seed, log, &rep, &layers);
    rep.attempted = p.attempted;
    rep.failed = p.failed;
    rep.failures = p.failures;
    rep.makespan = p.makespan;
    rep.latency_us = p.latency_us;
    const double max_rate_kops = capacity(options.seed, options.small);
    if (params.rate_per_ms >= max_rate_kops) {
        rep.fail("offered rate " + std::to_string(params.rate_per_ms) +
                 " req/ms is not below kv.max_rate_kops " + std::to_string(max_rate_kops));
    }
    put(rep.virtual_extra, "kv.write_p99_us", p.write_us.percentile(99), "us");
    put(rep.virtual_extra, "kv.offered_kops", params.rate_per_ms, "kops");
    put(rep.virtual_extra, "kv.max_rate_kops", max_rate_kops, "kops");
    rep.fingerprint = fingerprint_of(p.latency_us) + "/" + std::to_string(p.makespan);
    if (options.traced) {
        const LayerSplit split = analyse(log);
        put_span_layers(rep.layers, split);
        put_pcts(rep.layers, "ingress.queue_wait_us", p.queue_us, "us");
        put(rep.layers, "ingress.gen_late_us.p99", p.late_us.percentile(99), "us");
        for (const char* name : {"dfutex.wake", "dfutex.wait", "dfutex.mutex_lock",
                                 "page_owner.touch", "vma_server.mmap", "vma_server.munmap",
                                 "thread_group.spawn_remote", "thread_group.join"}) {
            const auto it = split.by_name.find(name);
            put_pcts(rep.layers, std::string(name) + "_us",
                     it == split.by_name.end() ? Samples{} : it->second, "us");
        }
        layers.put(rep.layers, static_cast<double>(p.attempted));
        put(rep.layers, "kv.write_p99_us", p.write_us.percentile(99), "us");
        put(rep.layers, "kv.read_phase.p99_us", p.phase_us[0].percentile(99), "us");
        put(rep.layers, "kv.write_phase.p99_us", p.phase_us[1].percentile(99), "us");
        put(rep.layers, "kv.max_rate_kops", max_rate_kops, "kops");
        put(rep.layers, "trace.spans", static_cast<double>(log.spans().size()), "count");
        put_unused(rep.layers,
                   {{"migration.total_us", "migration.retouch_us", "thread_group.spawn_local_us"},
                    {{"migration.checkpoint_us.p50", "us"},
                     {"migration.transfer_us.p50", "us"},
                     {"migration.resume_us.p50", "us"},
                     {"ref.smp_ms", "ms"},
                     {"npb.popcorn_over_smp", "ratio"}}});
    }
    return rep;
}

} // namespace rkobench
