// E2 — Thread-migration latency breakdown.
//
// The paper's central microbenchmark: how long does it take to move a
// running thread to another kernel, and where does the time go?
//   (a) phase breakdown (checkpoint / transfer+instantiate / resume) for a
//       first visit vs. a revisit (shadow reactivation),
//   (b) cost of re-establishing the working set after migration (the lazy
//       address-space consistency tail) vs. working-set size,
//   (c) comparison anchors: migration vs. spawning a fresh thread locally
//       and remotely.
#include "harness.hpp"
#include "report.hpp"
#include "rko/api/machine.hpp"
#include "rko/core/migration.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/smp/smp.hpp"

namespace {

using namespace rko;
using namespace rko::time_literals;
using api::Guest;
using api::Machine;
using bench::fmt;
using bench::fmt_ns;
using bench::Table;

struct Phases {
    base::Histogram checkpoint, transfer, resume, total;
    void add(const core::MigrationBreakdown& b) {
        checkpoint.add(b.checkpoint);
        transfer.add(b.transfer);
        resume.add(b.resume);
        total.add(b.total);
    }
};

} // namespace

int main(int argc, char** argv) {
    const bench::Args args(argc, argv);
    bench::Reporter report(args, "bench_migration");
    const int reps = args.quick() ? 20 : 200;

    std::printf("E2: thread migration latency breakdown (virtual time)\n");

    bench::section("(a) migration phases, kernel 0 -> kernel 1 (ping-pong)");
    {
        Machine machine(smp::popcorn_config(8, 4));
        auto& process = machine.create_process(0);
        Phases first, revisit;
        process.spawn(
            [&](Guest& g) {
                first.add(g.migrate(1));  // cold: task record created
                revisit.add(g.migrate(0)); // shadow reactivation at origin
                for (int i = 0; i < reps; ++i) {
                    revisit.add(g.migrate(1));
                    revisit.add(g.migrate(0));
                }
            },
            0);
        machine.run();
        process.check_all_joined();

        std::printf("revisit samples per phase: %llu\n",
                    static_cast<unsigned long long>(revisit.total.count()));
        Table table({"phase", "first visit", "revisit mean", "revisit p50",
                     "revisit p99"});
        const auto row = [&](const char* label, const char* key,
                             const base::Histogram& f, const base::Histogram& r) {
            table.add_row({label, fmt_ns((Nanos)f.mean()), fmt_ns((Nanos)r.mean()),
                           fmt_ns(r.percentile(50)), fmt_ns(r.percentile(99))});
            report.add_histogram(std::string("phase.first.") + key, f);
            report.add_histogram(std::string("phase.revisit.") + key, r);
        };
        row("checkpoint + depart", "checkpoint_ns", first.checkpoint,
            revisit.checkpoint);
        row("transfer + instantiate", "transfer_ns", first.transfer, revisit.transfer);
        row("resume (core acquire)", "resume_ns", first.resume, revisit.resume);
        row("TOTAL", "total_ns", first.total, revisit.total);
        table.print();
        report.merge(machine.collect_metrics());
    }

    bench::section("(b) post-migration working-set re-establishment");
    {
        // Two owners of the working set: the home itself (the writer on the
        // origin k0 moves to k1), and a remote owner (the writer on k1 moves
        // to k2), whose pages the home has it surrender straight to k2.
        struct Row {
            const char* label;
            const char* key;
            topo::KernelId from, to;
        };
        Table table({"owner", "working set", "migrate", "first re-touch", "per page"});
        for (const Row& row : {Row{"home k0", "workset.", 0, 1},
                               Row{"remote k1", "workset.remote.", 1, 2}}) {
            for (const int pages : {4, 16, 64, 256}) {
                Machine machine(smp::popcorn_config(8, 4));
                auto& process = machine.create_process(0);
                Nanos migrate_cost = 0, retouch_cost = 0;
                process.spawn(
                    [&](Guest& g) {
                        const auto buf = g.mmap(static_cast<std::uint64_t>(pages) *
                                                mem::kPageSize);
                        for (int p = 0; p < pages; ++p) {
                            g.write<std::uint64_t>(
                                buf + static_cast<mem::Vaddr>(p) * mem::kPageSize, p);
                        }
                        g.flush_timing();
                        migrate_cost = g.migrate(row.to).total;
                        const Nanos t0 = g.now();
                        std::uint64_t sum = 0;
                        for (int p = 0; p < pages; ++p) {
                            sum += g.read<std::uint64_t>(
                                buf + static_cast<mem::Vaddr>(p) * mem::kPageSize);
                        }
                        g.flush_timing();
                        retouch_cost = g.now() - t0;
                        RKO_ASSERT(sum ==
                                   static_cast<std::uint64_t>(pages) * (pages - 1) / 2);
                    },
                    row.from);
                machine.run();
                process.check_all_joined();
                table.add_row({row.label, fmt("%d pages", pages), fmt_ns(migrate_cost),
                               fmt_ns(retouch_cost), fmt_ns(retouch_cost / pages)});
                report.add_gauge(fmt("%s%d.migrate_ns", row.key, pages),
                                 static_cast<double>(migrate_cost));
                report.add_gauge(fmt("%s%d.retouch_ns", row.key, pages),
                                 static_cast<double>(retouch_cost));
            }
        }
        table.print();
        std::printf("\nMigration itself is O(context); the hot set follows in the "
                    "pull round and the tail in boosted fault batches.\n");
    }

    bench::section("(c) anchors: migration vs thread creation");
    {
        Machine machine(smp::popcorn_config(8, 4));
        auto& process = machine.create_process(0);
        base::Summary local_spawn, remote_spawn, migration;
        process.spawn(
            [&](Guest& g) {
                for (int i = 0; i < reps / 2 + 1; ++i) {
                    Nanos t0 = g.now();
                    auto& t1 = g.spawn([](Guest&) {}, 0);
                    local_spawn.add(static_cast<double>(g.now() - t0));
                    t0 = g.now();
                    auto& t2 = g.spawn([](Guest&) {}, 2);
                    remote_spawn.add(static_cast<double>(g.now() - t0));
                    g.join(t1);
                    g.join(t2);
                    t0 = g.now();
                    g.migrate(i % 2 == 0 ? 1 : 0);
                    migration.add(static_cast<double>(g.now() - t0));
                }
            },
            0);
        machine.run();
        process.check_all_joined();

        Table table({"operation", "mean", "min", "max"});
        const auto row = [&](const char* name, const base::Summary& s) {
            table.add_row({name, fmt_ns((Nanos)s.mean()), fmt_ns((Nanos)s.min()),
                           fmt_ns((Nanos)s.max())});
        };
        row("spawn (same kernel)", local_spawn);
        row("spawn (remote kernel)", remote_spawn);
        row("migrate (to other kernel)", migration);
        table.print();
        report.add_summary("anchor.spawn_local_ns", local_spawn);
        report.add_summary("anchor.spawn_remote_ns", remote_spawn);
        report.add_summary("anchor.migrate_ns", migration);
    }

    bench::section("(d) migration latency distribution");
    {
        Machine machine(smp::popcorn_config(8, 2));
        auto& process = machine.create_process(0);
        process.spawn(
            [&](Guest& g) {
                for (int i = 0; i < reps; ++i) g.migrate(g.kernel() == 0 ? 1 : 0);
            },
            0);
        machine.run();
        process.check_all_joined();
        const auto& hist0 = machine.kernel(0).migration().latency();
        const auto& hist1 = machine.kernel(1).migration().latency();
        base::Histogram all = hist0;
        all.merge(hist1);
        std::printf("%s\n", all.to_string().c_str());
        report.add_histogram("pingpong.latency_ns", all);
    }
    return 0;
}
