// migrate_churn: a closed loop of thread migrations on 16 cores / 4 kernels.
//
// A main thread spawns one worker per core. Each round a worker maps a
// private working set (seeded, 4-256 pages, log-uniform), touches it,
// migrates to another kernel, retouches it and unmaps it; every few rounds
// it spawns and joins a small batch of helper threads on seeded kernels.
// One op is a hop: from the migrate call until the working set has been
// retouched, because that is when the thread is useful again. Shared-page
// write traffic is deliberately absent: thread migration, distributed
// thread-group creation and VMA-master traffic dominate.
//
// The balancer runs with policy kAffinity, so idle kernels steal queued
// threads: a hop's thread may be claimed while it waits in the destination
// run queue and resume elsewhere, as Guest::migrate allows.
//
// Every migration must complete (instantiate the thread at its
// destination), every retouch verifies the stamps written before the hop,
// every helper and worker must exit with status 0, and every munmap must
// succeed.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "rko/base/rng.hpp"

namespace rkobench {
namespace {

using rko::api::Guest;
using rko::api::Machine;
using rko::api::Thread;
using rko::mem::kPageSize;
using rko::mem::Vaddr;

constexpr int kCores = 16;
constexpr int kKernels = 4;
constexpr int kWorkers = kCores;
constexpr std::uint32_t kMinPages = 4;
constexpr std::uint32_t kMaxPages = 256;
constexpr int kHelperEvery = 16; ///< rounds between helper batches (a process
                                 ///< has 2048 thread ids, never reused)
constexpr int kHelpersPerBatch = 3;
constexpr Nanos kHelperComputeNs = 5000;
constexpr Nanos kRoundComputeNs = 2000; ///< per-round work between hops

struct Round {
    std::uint32_t pages = 0;
    /// Kernels to hop forward, 1..kKernels-1: the destination is counted
    /// from wherever the thread runs, so a hop always leaves its kernel
    /// even after the balancer has moved the thread.
    std::uint8_t hop = 1;
    std::uint8_t helper_kernel[kHelpersPerBatch] = {};
};

struct Inputs {
    std::vector<std::vector<Round>> rounds; ///< per worker
    std::uint64_t hash = 0;
};

Inputs make_inputs(std::uint64_t seed, int rounds_per_worker) {
    Inputs in;
    rko::base::Rng rng(mix(seed, 0x63687572ULL));
    in.hash = mix(seed, static_cast<std::uint64_t>(rounds_per_worker));
    in.rounds.resize(kWorkers);
    // Working-set sizes are stratified: every worker gets the same sizes,
    // the log-uniform quantiles from kMinPages to kMaxPages, in its own
    // seeded order. Each worker then carries the same total page work on
    // every seed, and the seed decides the order and the hops.
    const double log_span = std::log(static_cast<double>(kMaxPages) / kMinPages);
    std::vector<std::uint32_t> sizes;
    for (int r = 0; r < rounds_per_worker; ++r) {
        const double u = (r + 0.5) / rounds_per_worker;
        sizes.push_back(std::clamp<std::uint32_t>(
            static_cast<std::uint32_t>(std::lround(kMinPages * std::exp(u * log_span))), kMinPages,
            kMaxPages));
    }
    for (int w = 0; w < kWorkers; ++w) {
        for (int r = rounds_per_worker - 1; r > 0; --r) {
            std::swap(sizes[static_cast<std::size_t>(r)],
                      sizes[rng.below(static_cast<std::uint64_t>(r) + 1)]);
        }
        for (int r = 0; r < rounds_per_worker; ++r) {
            Round round;
            round.pages = sizes[static_cast<std::size_t>(r)];
            round.hop = static_cast<std::uint8_t>(1 + rng.below(kKernels - 1));
            for (auto& k : round.helper_kernel) k = static_cast<std::uint8_t>(rng.below(kKernels));
            in.rounds[static_cast<std::size_t>(w)].push_back(round);
            in.hash = mix(in.hash, (round.pages << 8) | round.hop);
        }
    }
    return in;
}

std::uint64_t stamp(int worker, int round, std::uint32_t page) {
    return mix(mix(0x6d63ULL, static_cast<std::uint64_t>(worker)),
               (static_cast<std::uint64_t>(round) << 16) | page);
}

struct HopTimes {
    Samples hop_us, retouch_us, total_us, checkpoint_us, transfer_us, resume_us;
    Samples spawn_local_us, spawn_remote_us, join_us, mmap_us, munmap_us, touch_us;
    Samples stretch; ///< elapsed / requested per-round compute
};

class Churn {
public:
    Churn(const Inputs& in, SpanLog& log) : in_(in), log_(log) {}

    void main(Guest& g) {
        std::vector<Thread*> workers;
        for (int w = 0; w < kWorkers; ++w) {
            const auto where = static_cast<rko::topo::KernelId>(w % kKernels);
            spawn(g, where, kNoOp, -1, [this, w](Guest& wg) { worker(wg, w); }, &workers);
        }
        for (Thread* t : workers) join(g, *t, kNoOp, -1);
    }

    const HopTimes& times() const { return t_; }
    std::uint64_t failures() const { return failures_; }
    std::uint64_t hops() const { return hops_; }
    /// Hops whose thread the balancer moved on before it resumed.
    std::uint64_t redirected() const { return redirected_; }

private:
    template <typename F>
    void spawn(Guest& g, rko::topo::KernelId where, std::uint32_t op, std::int32_t parent, F fn,
               std::vector<Thread*>* out) {
        const bool local = where == g.kernel();
        Thread* t = nullptr;
        const Nanos took = timed(log_, g, local ? "thread_group.spawn_local" : "thread_group.spawn_remote",
                                 op, parent, [&] { t = &g.spawn(fn, where); });
        (local ? t_.spawn_local_us : t_.spawn_remote_us).add_ns(took);
        out->push_back(t);
    }

    void join(Guest& g, Thread& t, std::uint32_t op, std::int32_t parent) {
        t_.join_us.add_ns(timed(log_, g, "thread_group.join", op, parent, [&] { g.join(t); }));
        if (t.exit_status() != 0 || t.segfaulted()) ++failures_;
    }

    void worker(Guest& g, int w) {
        const auto& rounds = in_.rounds[static_cast<std::size_t>(w)];
        for (int r = 0; r < static_cast<int>(rounds.size()); ++r) {
            const Round& round = rounds[static_cast<std::size_t>(r)];
            const std::uint64_t len = static_cast<std::uint64_t>(round.pages) * kPageSize;
            Vaddr buf = 0;
            t_.mmap_us.add_ns(timed(log_, g, "vma_server.mmap", kNoOp, -1, [&] { buf = g.mmap(len); }));
            if (buf == 0) {
                ++failures_;
                return;
            }
            for (std::uint32_t p = 0; p < round.pages; ++p) {
                t_.touch_us.add_ns(timed(log_, g, "page_owner.touch", kNoOp, -1, [&] {
                    g.write<std::uint64_t>(buf + p * kPageSize, stamp(w, r, p));
                }));
            }
            const Nanos took = timed(log_, g, "sched.compute", kNoOp, -1,
                                     [&] { g.compute(kRoundComputeNs); });
            t_.stretch.add(static_cast<double>(took) / static_cast<double>(kRoundComputeNs));
            hop(g, w, r, round, buf);
            int rc = -1;
            t_.munmap_us.add_ns(timed(log_, g, "vma_server.munmap", kNoOp, -1, [&] { rc = g.munmap(buf, len); }));
            if (rc != 0) ++failures_;
            if ((r + 1) % kHelperEvery == 0) {
                std::vector<Thread*> helpers;
                for (const std::uint8_t k : round.helper_kernel) {
                    spawn(g, k, kNoOp, -1, [](Guest& hg) { hg.compute(kHelperComputeNs); }, &helpers);
                }
                for (Thread* h : helpers) join(g, *h, kNoOp, -1);
            }
        }
    }

    /// One op: migrate, then retouch (read-verify-write) the working set.
    void hop(Guest& g, int w, int r, const Round& round, Vaddr buf) {
        const std::uint32_t op = hops_++;
        g.flush_timing();
        const Nanos start = g.now();
        const std::int32_t root = log_.open("op", op, -1, start);
        const auto dest = static_cast<rko::topo::KernelId>((g.kernel() + round.hop) % kKernels);
        rko::core::MigrationBreakdown bd{};
        const Nanos moved = timed(log_, g, "migration.migrate", op, root,
                                  [&] { bd = g.migrate(dest); });
        // transfer is set only once the destination has instantiated the
        // thread; a refused or failed migration leaves it 0.
        if (bd.transfer <= 0) ++failures_;
        if (g.kernel() != dest) ++redirected_;
        // The breakdown's phases, laid end to end inside the migrate span
        // (resume ends where the call returns).
        const std::int32_t mig = static_cast<std::int32_t>(log_.spans().size()) - 1;
        log_.record("migration.checkpoint", op, mig, start, start + bd.checkpoint);
        log_.record("migration.transfer", op, mig, start + bd.checkpoint,
                    start + bd.checkpoint + bd.transfer);
        log_.record("migration.resume", op, mig, start + moved - bd.resume, start + moved);
        const Nanos retouch_start = start + moved;
        for (std::uint32_t p = 0; p < round.pages; ++p) {
            timed(log_, g, "page_owner.retouch", op, root, [&] {
                const Vaddr a = buf + p * kPageSize;
                if (g.read<std::uint64_t>(a) != stamp(w, r, p)) ++failures_;
                g.write<std::uint64_t>(a, ~stamp(w, r, p));
            });
        }
        g.flush_timing();
        const Nanos end = g.now();
        log_.close(root, end);
        t_.hop_us.add_ns(end - start);
        t_.retouch_us.add_ns(end - retouch_start);
        t_.total_us.add_ns(bd.total);
        t_.checkpoint_us.add_ns(bd.checkpoint);
        t_.transfer_us.add_ns(bd.transfer);
        t_.resume_us.add_ns(bd.resume);
    }

    static constexpr std::uint32_t kNoOp = 0xffffffffu;

    const Inputs& in_;
    SpanLog& log_;
    HopTimes t_;
    std::uint64_t failures_ = 0;
    std::uint32_t hops_ = 0;
    std::uint64_t redirected_ = 0;
};

int rounds_per_worker(bool small) { return small ? 24 : 128; }

} // namespace

Rep run_migrate_churn(const RunOptions& options) {
    Rep rep;
    Inputs in;
    std::unique_ptr<Machine> machine;
    rko::api::Process* process = nullptr;
    SpanLog log(options.traced);
    Churn churn(in, log);
    {
        HostTimer t(&rep.setup_s);
        in = make_inputs(options.seed, rounds_per_worker(options.small));
        rko::api::MachineConfig config;
        config.ncores = kCores;
        config.nkernels = kKernels;
        config.seed = options.seed;
        config.balance.policy = rko::balance::Policy::kAffinity;
        machine = std::make_unique<Machine>(config);
        process = &machine->create_process(0);
        process->spawn([&churn](Guest& g) { churn.main(g); }, 0);
    }
    {
        HostTimer t(&rep.host_s);
        rep.makespan = machine->run();
    }
    process->check_all_joined();
    rep.input_hash = in.hash;
    rep.events = machine->engine().dispatch_count();
    rep.machines.push_back(describe(machine->config()));
    const HopTimes& t = churn.times();
    rep.latency_us = t.hop_us;
    rep.attempted = churn.hops();
    if (churn.failures() > 0) {
        rep.fail(std::to_string(churn.failures()) + " hop, unmap or thread-exit checks failed");
        rep.failed = churn.failures();
    }
    const auto expected = static_cast<std::uint64_t>(kWorkers) *
                          static_cast<std::uint64_t>(rounds_per_worker(options.small));
    if (churn.hops() != expected) rep.fail("not every round completed its hop");
    put(rep.virtual_extra, "migration.retouch_us.p50", t.retouch_us.percentile(50), "us");
    put(rep.virtual_extra, "balance.redirected_hops", static_cast<double>(churn.redirected()),
        "count");
    rep.fingerprint = fingerprint_of(t.hop_us) + "/" + std::to_string(rep.makespan);
    if (options.traced) {
        const LayerSplit split = analyse(log);
        put_span_layers(rep.layers, split);
        MachineLayers layers;
        layers.absorb(*machine, 0);
        layers.put(rep.layers, static_cast<double>(churn.hops()));
        put_pcts(rep.layers, "migration.total_us", t.total_us, "us");
        put(rep.layers, "migration.checkpoint_us.p50", t.checkpoint_us.percentile(50), "us");
        put(rep.layers, "migration.transfer_us.p50", t.transfer_us.percentile(50), "us");
        put(rep.layers, "migration.resume_us.p50", t.resume_us.percentile(50), "us");
        put_pcts(rep.layers, "migration.retouch_us", t.retouch_us, "us");
        put_pcts(rep.layers, "thread_group.spawn_local_us", t.spawn_local_us, "us");
        put_pcts(rep.layers, "thread_group.spawn_remote_us", t.spawn_remote_us, "us");
        put_pcts(rep.layers, "thread_group.join_us", t.join_us, "us");
        put_pcts(rep.layers, "vma_server.mmap_us", t.mmap_us, "us");
        put_pcts(rep.layers, "vma_server.munmap_us", t.munmap_us, "us");
        put_pcts(rep.layers, "page_owner.touch_us", t.touch_us, "us");
        put_pcts(rep.layers, "sched.compute_stretch", t.stretch, "ratio");
        put_unused(rep.layers,
                   {{"ingress.queue_wait_us", "dfutex.wake_us", "dfutex.wait_us",
                     "dfutex.mutex_lock_us"},
                    {{"ingress.gen_late_us.p99", "us"},
                     {"kv.write_p99_us", "us"},
                     {"kv.read_phase.p99_us", "us"},
                     {"kv.write_phase.p99_us", "us"},
                     {"kv.max_rate_kops", "kops"},
                     {"kv.seqlock_retries", "count"},
                     {"ref.smp_ms", "ms"},
                     {"npb.popcorn_over_smp", "ratio"}}});
        put(rep.layers, "trace.spans", static_cast<double>(log.spans().size()), "count");
    }
    return rep;
}

} // namespace rkobench
