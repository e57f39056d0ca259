// npb: IS (gather variant) and CG from bench/apps.hpp as a closed batch at
// 32 cores / 8 kernels, scaled up from bench_apps' sizes.
//
// The guest code performs exactly bench/apps.hpp's operations (the
// bench_apps cross-check in the self-test proves it: same makespans to the
// nanosecond), with three additions that cost no virtual time inside the
// measured region: keys and the CG start vector come from host-generated
// inputs, each compute block is timed as one op, and after the makespan is
// taken the main thread reads the outputs back for checking. IS output must
// equal a host stable bucket sort of the keys; the CG vector must equal
// both a host recomputation and an SMP run of the same inputs.
#include <algorithm>
#include <bit>
#include <map>
#include <memory>

#include "bench.hpp"
#include "bench/apps.hpp"
#include "rko/base/rng.hpp"

namespace rkobench {
namespace {

using rko::api::Guest;
using rko::api::Machine;
using rko::api::Thread;
using rko::apps::place;
using rko::apps::round_robin_members;
using rko::apps::SpinBarrier;
using rko::mem::kPageSize;
using rko::mem::Vaddr;

constexpr int kCores = 32;
constexpr int kKernels = 8;

struct NpbSizes {
    int threads = kCores;
    std::uint32_t nkeys = 1u << 18;
    std::uint32_t buckets = 256;
    rko::Nanos compute_per_key = 25;
    std::uint32_t n = 1u << 16;
    int iterations = 8;
    rko::Nanos compute_per_cell = 250;
};

struct NpbInputs {
    std::vector<std::uint32_t> keys; ///< thread-major, per_thread keys each
    std::vector<std::uint64_t> x0;   ///< CG start vector
    /// Modeled FLOP cost of each 256-row CG block: the sparse rows' lengths
    /// vary +-10% around bench_apps' constant cost, as NPB CG's random
    /// matrix does (bench_apps' cross-check uses the constant).
    std::vector<Nanos> cg_block_ns;
    std::uint64_t hash = 0;
};

NpbInputs make_inputs(const NpbSizes& z, std::uint64_t seed, bool bench_apps_keys) {
    NpbInputs in;
    const std::uint32_t per_thread = z.nkeys / static_cast<std::uint32_t>(z.threads);
    in.keys.reserve(z.nkeys);
    for (int t = 0; t < z.threads; ++t) {
        // bench_apps generates thread t's keys from Rng(seed + t) in guest.
        rko::base::Rng rng(bench_apps_keys ? seed + static_cast<std::uint64_t>(t)
                                           : mix(mix(seed, 0x6e7062ULL), static_cast<std::uint64_t>(t)));
        for (std::uint32_t i = 0; i < per_thread; ++i) {
            in.keys.push_back(static_cast<std::uint32_t>(rng.next() >> 32));
        }
    }
    in.x0.resize(z.n);
    rko::base::Rng rng(mix(seed, 0x6367ULL));
    for (std::uint32_t i = 0; i < z.n; ++i) {
        in.x0[i] = bench_apps_keys ? i : rng.next() >> 24; // < 2^40: no overflow
    }
    in.cg_block_ns.resize(z.n / 256);
    for (Nanos& ns : in.cg_block_ns) {
        const Nanos base = z.compute_per_cell * 256;
        ns = bench_apps_keys ? base
                             : static_cast<Nanos>(static_cast<double>(base) * (0.9 + 0.2 * rng.uniform()));
    }
    in.hash = mix(seed, z.nkeys);
    for (const std::uint32_t k : in.keys) in.hash = mix(in.hash, k);
    for (const std::uint64_t v : in.x0) in.hash = mix(in.hash, v);
    for (const Nanos ns : in.cg_block_ns) in.hash = mix(in.hash, static_cast<std::uint64_t>(ns));
    return in;
}

/// Per-op (compute block) timing shared by both apps.
struct Blocks {
    SpanLog* log;
    Samples* latency_us;
    Samples stretch; ///< elapsed / requested compute (traced mode)
    std::uint32_t next_op = 0;

    /// One block ends at a compute call: [mark, flush] is memory access
    /// (and its faults), [flush, end] the modeled FLOPs. Returns the new mark.
    Nanos compute(Guest& g, Nanos mark, Nanos ns) {
        g.flush_timing(); // compute() flushes first anyway: same schedule
        const Nanos flushed = g.now();
        g.compute(ns);
        const Nanos end = g.now();
        const std::uint32_t op = next_op++;
        const std::int32_t root = log->record("op", op, -1, mark, end);
        log->record("page_owner.access", op, root, mark, flushed);
        log->record("sched.compute", op, root, flushed, end);
        latency_us->add_ns(end - mark);
        if (log->enabled()) {
            stretch.add(static_cast<double>(end - flushed) / static_cast<double>(ns));
        }
        return end;
    }
};

struct AppResult {
    Nanos makespan = 0;
    std::vector<std::uint64_t> output;
};

/// bench/apps.hpp is_sort, gather variant, with host-supplied keys.
AppResult is_sort(Machine& machine, rko::api::Process& process, const NpbSizes& z,
                  const NpbInputs& in, Blocks* blocks) {
    const int nk = machine.nkernels();
    const auto threads = static_cast<std::uint32_t>(z.threads);
    const std::uint32_t per_thread = z.nkeys / threads;
    const std::uint32_t bucket_shift =
        32 - static_cast<std::uint32_t>(std::bit_width(z.buckets - 1));
    const std::uint32_t buckets_per_thread = z.buckets / threads;
    Vaddr keys = 0, out = 0, hist = 0, cursors = 0;
    const std::uint64_t cursor_block =
        rko::mem::page_ceil(static_cast<std::uint64_t>(threads) * buckets_per_thread * 4);
    SpinBarrier* barrier = nullptr;
    AppResult result;

    auto worker = [&, per_thread](Guest& g, std::uint32_t tid) {
        const Vaddr my_keys = keys + static_cast<Vaddr>(tid) * per_thread * 4;
        const Vaddr my_hist = hist + static_cast<Vaddr>(tid) * z.buckets * 4;
        for (std::uint32_t i = 0; i < per_thread; ++i) {
            g.write<std::uint32_t>(my_keys + i * 4, in.keys[tid * per_thread + i]);
        }
        barrier->wait(g);
        Nanos mark = g.now();
        for (std::uint32_t i = 0; i < per_thread; ++i) {
            const std::uint32_t key = g.read<std::uint32_t>(my_keys + i * 4);
            const Vaddr slot = my_hist + (key >> bucket_shift) * 4;
            g.write<std::uint32_t>(slot, g.read<std::uint32_t>(slot) + 1);
            if (i % 512 == 0) mark = blocks->compute(g, mark, z.compute_per_key * 512);
        }
        barrier->wait(g);
        if (tid == 0) {
            std::uint32_t running = 0;
            for (std::uint32_t b = 0; b < z.buckets; ++b) {
                const std::uint32_t owner = b / buckets_per_thread;
                for (std::uint32_t t = 0; t < threads; ++t) {
                    const Vaddr slot = hist + (static_cast<Vaddr>(t) * z.buckets + b) * 4;
                    const std::uint32_t count = g.read<std::uint32_t>(slot);
                    const Vaddr cslot =
                        cursors + static_cast<Vaddr>(owner) * cursor_block +
                        (static_cast<Vaddr>(t) * buckets_per_thread + (b % buckets_per_thread)) * 4;
                    g.write<std::uint32_t>(cslot, running);
                    running += count;
                }
            }
        }
        barrier->wait(g);
        const std::uint32_t b_lo = tid * buckets_per_thread;
        const std::uint32_t b_hi = b_lo + buckets_per_thread;
        const Vaddr my_cursors = cursors + static_cast<Vaddr>(tid) * cursor_block;
        mark = g.now();
        for (std::uint32_t src = 0; src < threads; ++src) {
            const Vaddr src_keys = keys + static_cast<Vaddr>(src) * per_thread * 4;
            for (std::uint32_t i = 0; i < per_thread; ++i) {
                const std::uint32_t key = g.read<std::uint32_t>(src_keys + i * 4);
                const std::uint32_t b = key >> bucket_shift;
                if (i % 512 == 0) mark = blocks->compute(g, mark, z.compute_per_key * 512);
                if (b < b_lo || b >= b_hi) continue;
                const Vaddr cursor =
                    my_cursors + (static_cast<Vaddr>(src) * buckets_per_thread + (b - b_lo)) * 4;
                const std::uint32_t pos = g.read<std::uint32_t>(cursor);
                g.write<std::uint32_t>(cursor, pos + 1);
                g.write<std::uint32_t>(out + static_cast<Vaddr>(pos) * 4, key);
            }
        }
        barrier->wait(g);
        if (tid == 0) {
            // bench_apps' in-run spot check, kept so the schedule matches.
            std::uint32_t prev = 0;
            for (std::uint32_t i = 0; i < z.nkeys; i += 97) {
                const std::uint32_t bucket =
                    g.read<std::uint32_t>(out + static_cast<Vaddr>(i) * 4) >> bucket_shift;
                prev = std::max(prev, bucket);
            }
        }
    };

    process.spawn(
        [&](Guest& g) {
            keys = g.mmap(static_cast<std::uint64_t>(z.nkeys) * 4);
            out = g.mmap(static_cast<std::uint64_t>(z.nkeys) * 4);
            hist = g.mmap(static_cast<std::uint64_t>(threads) * z.buckets * 4);
            cursors = g.mmap(static_cast<std::uint64_t>(threads) * cursor_block);
            SpinBarrier bar(g, round_robin_members(z.threads, nk));
            barrier = &bar;
            const Nanos t0 = g.now();
            std::vector<Thread*> workers;
            for (std::uint32_t t = 1; t < threads; ++t) {
                workers.push_back(&g.spawn([&, t](Guest& wg) { worker(wg, t); },
                                           place(static_cast<int>(t), nk)));
            }
            worker(g, 0);
            for (Thread* w : workers) g.join(*w);
            result.makespan = g.now() - t0;
            for (std::uint32_t i = 0; i < z.nkeys; ++i) {
                result.output.push_back(g.read<std::uint32_t>(out + static_cast<Vaddr>(i) * 4));
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    return result;
}

/// bench/apps.hpp cg_sweep with a host-supplied start vector.
AppResult cg_sweep(Machine& machine, rko::api::Process& process, const NpbSizes& z,
                   const NpbInputs& in, Blocks* blocks) {
    const int nk = machine.nkernels();
    const auto threads = static_cast<std::uint32_t>(z.threads);
    const std::uint32_t rows = z.n / threads;
    Vaddr x = 0, y = 0;
    SpinBarrier* barrier = nullptr;
    AppResult result;

    auto worker = [&, rows](Guest& g, std::uint32_t tid) {
        const std::uint32_t lo = tid * rows;
        const std::uint32_t hi = lo + rows;
        for (std::uint32_t i = lo; i < hi; ++i) {
            g.write<std::uint64_t>(x + static_cast<Vaddr>(i) * 8, in.x0[i]);
        }
        barrier->wait(g);
        Vaddr src = x, dst = y;
        for (int iter = 0; iter < z.iterations; ++iter) {
            Nanos mark = g.now();
            for (std::uint32_t i = lo; i < hi; ++i) {
                const std::uint64_t left =
                    i == 0 ? 0 : g.read<std::uint64_t>(src + static_cast<Vaddr>(i - 1) * 8);
                const std::uint64_t mid = g.read<std::uint64_t>(src + static_cast<Vaddr>(i) * 8);
                const std::uint64_t right =
                    i + 1 == z.n ? 0 : g.read<std::uint64_t>(src + static_cast<Vaddr>(i + 1) * 8);
                g.write<std::uint64_t>(dst + static_cast<Vaddr>(i) * 8, (left + 2 * mid + right) / 4);
                if (i % 256 == 0) mark = blocks->compute(g, mark, in.cg_block_ns[i / 256]);
            }
            std::swap(src, dst);
            barrier->wait(g);
        }
    };

    process.spawn(
        [&](Guest& g) {
            x = g.mmap(static_cast<std::uint64_t>(z.n) * 8);
            y = g.mmap(static_cast<std::uint64_t>(z.n) * 8);
            SpinBarrier bar(g, round_robin_members(z.threads, nk));
            barrier = &bar;
            const Nanos t0 = g.now();
            std::vector<Thread*> workers;
            for (std::uint32_t t = 1; t < threads; ++t) {
                workers.push_back(&g.spawn([&, t](Guest& wg) { worker(wg, t); },
                                           place(static_cast<int>(t), nk)));
            }
            worker(g, 0);
            for (Thread* w : workers) g.join(*w);
            result.makespan = g.now() - t0;
            const Vaddr final_vec = z.iterations % 2 == 0 ? x : y;
            for (std::uint32_t i = 0; i < z.n; ++i) {
                result.output.push_back(g.read<std::uint64_t>(final_vec + static_cast<Vaddr>(i) * 8));
            }
        },
        0);
    machine.run();
    process.check_all_joined();
    return result;
}

std::vector<std::uint64_t> host_is(const NpbSizes& z, const NpbInputs& in) {
    const std::uint32_t shift = 32 - static_cast<std::uint32_t>(std::bit_width(z.buckets - 1));
    std::vector<std::uint64_t> out(in.keys.begin(), in.keys.end());
    std::stable_sort(out.begin(), out.end(),
                     [shift](std::uint64_t a, std::uint64_t b) { return (a >> shift) < (b >> shift); });
    return out;
}

std::vector<std::uint64_t> host_cg(const NpbSizes& z, const NpbInputs& in) {
    std::vector<std::uint64_t> src = in.x0, dst(z.n);
    for (int iter = 0; iter < z.iterations; ++iter) {
        for (std::uint32_t i = 0; i < z.n; ++i) {
            const std::uint64_t left = i == 0 ? 0 : src[i - 1];
            const std::uint64_t right = i + 1 == z.n ? 0 : src[i + 1];
            dst[i] = (left + 2 * src[i] + right) / 4;
        }
        std::swap(src, dst);
    }
    return src;
}

struct Pair {
    AppResult is, cg;
};

/// Runs IS then CG, each on a fresh machine built by `config`.
Pair run_pair(const rko::api::MachineConfig& config, const NpbSizes& z, const NpbInputs& in,
              Blocks* blocks, Rep* rep, MachineLayers* layers) {
    Pair p;
    double setup = 0.0, host = 0.0;
    for (int app = 0; app < 2; ++app) {
        std::unique_ptr<Machine> machine;
        rko::api::Process* process = nullptr;
        {
            HostTimer t(&setup);
            machine = std::make_unique<Machine>(config);
            process = &machine->create_process(0);
        }
        {
            HostTimer t(&host);
            if (app == 0) {
                p.is = is_sort(*machine, *process, z, in, blocks);
            } else {
                p.cg = cg_sweep(*machine, *process, z, in, blocks);
            }
        }
        if (rep != nullptr) {
            rep->events += machine->engine().dispatch_count();
            rep->machines.push_back(describe(machine->config()));
        }
        if (layers != nullptr) layers->absorb(*machine, 0);
    }
    if (rep != nullptr) {
        rep->setup_s += setup;
        rep->host_s += host;
    }
    return p;
}

NpbSizes sizes(bool small) {
    NpbSizes z;
    if (small) {
        z.nkeys = 1u << 15;
        z.n = 1u << 14;
        z.iterations = 4;
    }
    return z;
}

rko::api::MachineConfig popcorn(std::uint64_t seed) {
    rko::api::MachineConfig c = rko::smp::popcorn_config(kCores, kKernels);
    c.seed = seed;
    return c;
}

rko::api::MachineConfig smp(std::uint64_t seed) {
    rko::api::MachineConfig c = rko::smp::smp_config(kCores);
    c.seed = seed;
    return c;
}

} // namespace

Rep run_npb(const RunOptions& options) {
    const NpbSizes z = sizes(options.small);
    Rep rep;
    NpbInputs in;
    {
        HostTimer t(&rep.setup_s);
        in = make_inputs(z, options.seed, false);
    }
    rep.input_hash = in.hash;
    SpanLog log(options.traced);
    Blocks blocks{&log, &rep.latency_us, {}, 0};
    MachineLayers layers;
    const Pair pop = run_pair(popcorn(options.seed), z, in, &blocks, &rep, &layers);
    rep.makespan = pop.is.makespan + pop.cg.makespan;

    // The SMP reference is a check and a reference metric, not part of the
    // measured run; it is deterministic, so one run per seed suffices.
    static std::map<std::pair<std::uint64_t, bool>, Pair> smp_refs;
    auto ref = smp_refs.find({options.seed, options.small});
    if (ref == smp_refs.end()) {
        SpanLog off(false);
        Samples ignored;
        Blocks smp_blocks{&off, &ignored, {}, 0};
        ref = smp_refs.emplace(std::make_pair(options.seed, options.small),
                               run_pair(smp(options.seed), z, in, &smp_blocks, nullptr, nullptr))
                  .first;
    }
    const Pair& smp_ref = ref->second;

    rep.attempted = rep.latency_us.count() + 2;
    const std::vector<std::uint64_t> is_host = host_is(z, in);
    if (pop.is.output != is_host) rep.fail("IS output is not the sorted permutation of its keys");
    const std::vector<std::uint64_t> cg_host = host_cg(z, in);
    if (pop.cg.output != smp_ref.cg.output) rep.fail("CG vector differs from the SMP reference run");
    if (pop.cg.output != cg_host) rep.fail("CG vector differs from the host recomputation");
    if (smp_ref.is.output != is_host) rep.fail("SMP IS output is not sorted");

    const double smp_ms = static_cast<double>(smp_ref.is.makespan + smp_ref.cg.makespan) / 1e6;
    put(rep.virtual_extra, "npb.is_ms", static_cast<double>(pop.is.makespan) / 1e6, "ms");
    put(rep.virtual_extra, "npb.cg_ms", static_cast<double>(pop.cg.makespan) / 1e6, "ms");
    put(rep.virtual_extra, "ref.smp_ms", smp_ms, "ms");
    put(rep.virtual_extra, "npb.popcorn_over_smp", static_cast<double>(rep.makespan) / 1e6 / smp_ms,
        "ratio");
    rep.fingerprint = fingerprint_of(rep.latency_us) + "/" + std::to_string(pop.is.makespan) + "/" +
                      std::to_string(pop.cg.makespan);
    if (options.traced) {
        const LayerSplit split = analyse(log);
        put_span_layers(rep.layers, split);
        layers.put(rep.layers, static_cast<double>(rep.latency_us.count()));
        for (const auto& [name, m] : rep.virtual_extra) rep.layers.emplace_back(name, m);
        put(rep.layers, "trace.spans", static_cast<double>(log.spans().size()), "count");
        put_pcts(rep.layers, "sched.compute_stretch", blocks.stretch, "ratio");
        put_unused(rep.layers,
                   {{"ingress.queue_wait_us", "dfutex.wake_us", "dfutex.wait_us",
                     "dfutex.mutex_lock_us", "page_owner.touch_us", "vma_server.mmap_us",
                     "vma_server.munmap_us", "migration.total_us", "migration.retouch_us",
                     "thread_group.spawn_local_us", "thread_group.spawn_remote_us",
                     "thread_group.join_us"},
                    {{"ingress.gen_late_us.p99", "us"},
                     {"migration.checkpoint_us.p50", "us"},
                     {"migration.transfer_us.p50", "us"},
                     {"migration.resume_us.p50", "us"},
                     {"kv.write_p99_us", "us"},
                     {"kv.read_phase.p99_us", "us"},
                     {"kv.write_phase.p99_us", "us"},
                     {"kv.max_rate_kops", "kops"},
                     {"kv.seqlock_retries", "count"}}});
    }
    return rep;
}

std::pair<Nanos, Nanos> npb_bench_apps_makespans() {
    NpbSizes z;
    z.nkeys = 1u << 16;
    z.n = 1u << 15;
    const NpbInputs in = make_inputs(z, 1, true);
    SpanLog off(false);
    Samples ignored;
    Blocks blocks{&off, &ignored, {}, 0};
    const Pair p = run_pair(rko::smp::popcorn_config(kCores, kKernels), z, in, &blocks, nullptr, nullptr);
    return {p.is.makespan, p.cg.makespan};
}

} // namespace rkobench
