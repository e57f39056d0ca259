#include "rko/api/process.hpp"

#include <limits>

#include "rko/api/machine.hpp"
#include "rko/base/log.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/ssi.hpp"
#include "rko/core/thread_group.hpp"
#include "rko/core/migration.hpp"
#include "rko/core/vma_server.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/msg/node.hpp"
#include "rko/trace/trace.hpp"

namespace rko::api {

namespace {
/// Guest region holding the per-thread ctid words (clear-tid protocol).
/// One page per thread: glibc keeps ctid on the (private) thread stack, so
/// exit-time writes must not false-share a page between threads on
/// different kernels.
constexpr mem::Vaddr kCtidBase = 0x0000'6000'0000'0000ULL;
constexpr std::uint64_t kCtidPages = 2048; ///< max threads per process
constexpr std::uint64_t kCtidStride = mem::kPageSize;
} // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Machine& machine, Pid pid, topo::KernelId origin)
    : machine_(machine), pid_(pid), origin_(origin), ctid_base_(kCtidBase) {
    // Boot-time mapping for the thread control words (glibc would place
    // these in TLS; we give them a fixed shared region).
    auto& site = machine_.kernel(origin_).site(pid_);
    RKO_ASSERT(site.space().vmas().insert(
        {ctid_base_, ctid_base_ + kCtidPages * mem::kPageSize,
         mem::kProtRead | mem::kProtWrite}));
}

Process::~Process() = default;

mem::Vaddr Process::alloc_ctid() {
    RKO_ASSERT_MSG(ctid_next_ < kCtidPages * (mem::kPageSize / kCtidStride),
                   "thread limit reached");
    return ctid_base_ + (ctid_next_++) * kCtidStride;
}

Thread& Process::spawn(GuestFn fn, topo::KernelId where) {
    return spawn_common(std::move(fn), where, nullptr);
}

Thread& Process::spawn_common(GuestFn fn, topo::KernelId where, Guest* parent) {
    kernel::Kernel& origin_kernel = machine_.kernel(origin_);
    const Tid tid = origin_kernel.alloc_pid();
    auto thread = std::make_unique<Thread>(machine_, *this, tid, where, std::move(fn),
                                           alloc_ctid());
    Thread& ref = *thread;
    threads_.push_back(std::move(thread));
    machine_.register_thread(tid, &ref);

    if (parent == nullptr) {
        // Boot path: the host instantiates directly (no protocol cost), the
        // way init's first threads appear at kernel boot.
        RKO_ASSERT_MSG(sim::current_engine() == nullptr,
                       "in-simulation spawns must go through Guest::spawn");
        origin_kernel.groups().origin_join(pid_, tid, where);
        task::Task& t = machine_.kernel(where).groups().instantiate_local(
            pid_, tid, origin_, "thread");
        RKO_ASSERT(t.actor != nullptr);
        t.actor->start();
        return ref;
    }

    // Guest path: distributed thread-group spawn on the parent's actor.
    kernel::Kernel& pk = parent->k();
    RKO_ASSERT(pk.groups().spawn(parent->t(), pk.site(pid_), tid, where));
    return ref;
}

void Process::destroy() {
    if (destroyed_) return;
    RKO_ASSERT_MSG(sim::current_engine() == nullptr, "destroy() is host-side");
    check_all_joined();
    kernel::Kernel& origin_kernel = machine_.kernel(origin_);
    // The teardown protocol awaits replies, so run it on a helper actor.
    sim::Actor reaper(machine_.engine(), "reaper",
                      [&](sim::Actor&) {
                          origin_kernel.groups().teardown(origin_kernel.site(pid_));
                      });
    reaper.start();
    machine_.engine().run();
    RKO_ASSERT(reaper.finished());
    destroyed_ = true;
}

void Process::check_all_joined() const {
    for (const auto& thread : threads_) {
        RKO_ASSERT_MSG(thread->finished(), "a guest thread never finished");
    }
}

// ---------------------------------------------------------------------------
// Thread
// ---------------------------------------------------------------------------

Thread::Thread(Machine& machine, Process& process, Tid tid,
               topo::KernelId start_kernel, GuestFn fn, mem::Vaddr ctid)
    : machine_(machine),
      process_(process),
      tid_(tid),
      kernel_id_(start_kernel),
      fn_(std::move(fn)),
      ctid_(ctid) {
    mmu_ = std::make_unique<mem::Mmu>(machine.phys(), machine.costs());
    actor_ = std::make_unique<sim::Actor>(machine.engine(),
                                          "tid" + std::to_string(tid),
                                          [this](sim::Actor&) { body(); });
}

Thread::~Thread() {
    machine_.unregister_thread(tid_);
}

bool Thread::finished() const {
    return actor_ != nullptr && actor_->finished();
}

void Thread::body() {
    Guest guest(machine_, *this);

    int status = 0;
    try {
        guest.place(kernel_id_);
        fn_(guest);
    } catch (const mem::GuestFault& fault) {
        segfaulted_ = true;
        status = 139; // 128 + SIGSEGV, as a shell would report
        RKO_WARN("tid %lld SIGSEGV at guest address 0x%llx",
                 static_cast<long long>(tid_),
                 static_cast<unsigned long long>(fault.addr));
    } catch (const ThreadKilled&) {
        status = 137; // 128 + SIGKILL: this kernel was fail-stopped
    } catch (const msg::LocalNodeDead&) {
        status = 137; // kernel died under a syscall in flight
    }
    exit_status_ = status;

    kernel::Kernel& k = machine_.kernel(kernel_id_);
    if (k.node().dead()) {
        // Fail-stop exit: no wire traffic. The origin reaps the group
        // record when the failure detector fires and publishes the ctid
        // word through the Machine's thread_lost hook.
        mmu_->detach();
        k.sys_exit_local(*task_, status);
        return;
    }

    // CLEARTID: publish exit and wake joiners through the normal guest
    // futex machinery (glibc's pthread_join protocol).
    try {
        mmu_->write<std::uint32_t>(ctid_, 1);
        mmu_->flush_charges();
        k.sys_futex_wake(*task_, ctid_, std::numeric_limits<std::uint32_t>::max());
    } catch (const mem::GuestFault&) {
        RKO_WARN("tid %lld: ctid word unreachable at exit", static_cast<long long>(tid_));
    } catch (const msg::LocalNodeDead&) {
        // Kernel fail-stopped mid-exit; fall through to the local path.
    }

    mmu_->detach();
    if (k.node().dead()) {
        k.sys_exit_local(*task_, status);
        return;
    }
    try {
        k.sys_exit(*task_, status);
    } catch (const msg::LocalNodeDead&) {
        k.sys_exit_local(*task_, status);
    }
}

// ---------------------------------------------------------------------------
// Guest
// ---------------------------------------------------------------------------

Guest::Guest(Machine& machine, Thread& thread) : machine_(machine), thread_(thread) {}

kernel::Kernel& Guest::k() { return machine_.kernel(thread_.kernel_id_); }

task::Task& Guest::t() {
    RKO_ASSERT(thread_.task_ != nullptr);
    return *thread_.task_;
}

Pid Guest::pid() const { return thread_.process_.pid(); }

Nanos Guest::now() const { return machine_.engine().now(); }

void Guest::place(topo::KernelId kernel_id) {
    topo::KernelId where = kernel_id;
    for (;;) {
        bind(where);
        machine_.kernel(where).sched().acquire(t());
        if (t().on_core()) {
            check_killed();
            // Working-set pre-copy (DESIGN.md §15): a freshly migrated-in
            // task drains the hot-page list its checkpoint shipped — one
            // blocking pull round on the guest's own actor (handlers are
            // leaves; they cannot rpc). Runs here so every arrival path
            // (api migrate and balancer steal chains alike) warms up.
            if (t().pending_workset_count != 0) {
                kernel::Kernel& kern = machine_.kernel(where);
                kern.pages().workset_prefault(kern.site(pid()), t());
            }
            return;
        }
        // A balancer claimed this task while it sat queued: acquire returned
        // core-less with the task marked kMigrating. The thread ships itself
        // (the fiber cannot travel on a wire) and queues at the target.
        const topo::KernelId dest = t().balance_target;
        RKO_ASSERT(t().state == task::TaskState::kMigrating);
        RKO_ASSERT(dest >= 0 && dest != where);
        thread_.mmu_->detach();
        if (!machine_.kernel(where).migration().migrate_out(t(), dest, nullptr)) {
            // Destination refused or died mid-transfer; the task record
            // stayed here (kMigrating, hint cleared) — re-acquire locally.
            continue;
        }
        where = dest;
    }
}

void Guest::check_killed() {
    if (thread_.kill_requested_) throw ThreadKilled{};
}

void Guest::rebalance_checkpoint() {
    const topo::KernelId dest = t().balance_target;
    if (dest < 0) return;
    t().balance_target = -1;
    if (dest == thread_.kernel_id_) return;
    k().metrics().counter("balance.hint_migrations").inc();
    migrate(dest);
}

void Guest::bind(topo::KernelId kernel_id) {
    thread_.kernel_id_ = kernel_id;
    kernel::Kernel& kern = machine_.kernel(kernel_id);
    task::Task* task = kern.find_task(thread_.tid_);
    RKO_ASSERT_MSG(task != nullptr, "no task record on the kernel being bound");
    thread_.task_ = task;
    auto& site = kern.site(pid());
    thread_.mmu_->attach(&site.space(),
                         [&kern, task](mem::Vaddr va, std::uint32_t access) {
                             return kern.handle_fault(*task, va, access);
                         });
}

mem::Vaddr Guest::mmap(std::uint64_t length, std::uint32_t prot) {
    thread_.mmu_->flush_charges();
    return k().sys_mmap(t(), length, prot);
}

int Guest::munmap(mem::Vaddr addr, std::uint64_t length) {
    thread_.mmu_->flush_charges();
    return k().sys_munmap(t(), addr, length);
}

int Guest::mprotect(mem::Vaddr addr, std::uint64_t length, std::uint32_t prot) {
    thread_.mmu_->flush_charges();
    return k().sys_mprotect(t(), addr, length, prot);
}

std::uint32_t Guest::cas_u32(mem::Vaddr addr, std::uint32_t expect,
                             std::uint32_t desired) {
    return rmw_u32(addr, [expect, desired](std::uint32_t v) {
        return v == expect ? desired : v;
    });
}

int Guest::futex_wait(mem::Vaddr uaddr, std::uint32_t val) {
    thread_.mmu_->flush_charges();
    check_killed();
    const int rc = k().sys_futex_wait(t(), uaddr, val);
    // A drain (or kill) wakes waiters spuriously with a balance hint or
    // the kill flag set; honor them before returning to guest code.
    check_killed();
    rebalance_checkpoint();
    return rc;
}

int Guest::futex_wait_for(mem::Vaddr uaddr, std::uint32_t val, Nanos timeout) {
    thread_.mmu_->flush_charges();
    check_killed();
    const int rc = k().sys_futex_wait(t(), uaddr, val, timeout);
    check_killed();
    rebalance_checkpoint();
    return rc;
}

mem::Vaddr Guest::brk(mem::Vaddr new_brk) {
    thread_.mmu_->flush_charges();
    return k().sys_brk(t(), new_brk);
}

mem::Vaddr Guest::sbrk(std::int64_t delta) {
    const mem::Vaddr old_brk = brk(0);
    if (delta == 0) return old_brk;
    const mem::Vaddr target = old_brk + static_cast<mem::Vaddr>(delta);
    return brk(target) == target ? old_brk : 0;
}

int Guest::futex_wake(mem::Vaddr uaddr, std::uint32_t max_wake) {
    thread_.mmu_->flush_charges();
    return k().sys_futex_wake(t(), uaddr, max_wake);
}

void Guest::mutex_lock(mem::Vaddr addr) {
    // Drepper, "Futexes Are Tricky", mutex 3: 0 free, 1 locked, 2 contended.
    std::uint32_t c = cas_u32(addr, 0, 1);
    if (c == 0) return;
    do {
        if (c == 2 || cas_u32(addr, 1, 2) != 0) {
            futex_wait(addr, 2);
        }
        c = cas_u32(addr, 0, 2);
    } while (c != 0);
}

void Guest::mutex_unlock(mem::Vaddr addr) {
    const std::uint32_t old = rmw_u32(addr, [](std::uint32_t) { return 0u; });
    if (old == 2) futex_wake(addr, 1);
}

void Guest::barrier_wait(mem::Vaddr addr, std::uint32_t nthreads) {
    const mem::Vaddr count_addr = addr;
    const mem::Vaddr gen_addr = addr + 4;
    const std::uint32_t gen = read<std::uint32_t>(gen_addr);
    const std::uint32_t arrived = rmw_u32(count_addr, [](std::uint32_t v) {
        return v + 1;
    });
    if (arrived + 1 == nthreads) {
        write<std::uint32_t>(count_addr, 0);
        rmw_u32(gen_addr, [](std::uint32_t v) { return v + 1; });
        futex_wake(gen_addr, std::numeric_limits<std::uint32_t>::max());
        return;
    }
    while (read<std::uint32_t>(gen_addr) == gen) {
        futex_wait(gen_addr, gen);
    }
}

Thread& Guest::spawn(GuestFn fn, topo::KernelId where) {
    thread_.mmu_->flush_charges();
    return thread_.process_.spawn_common(std::move(fn), where, this);
}

void Guest::join(Thread& thread) {
    while (read<std::uint32_t>(thread.ctid()) == 0) {
        futex_wait(thread.ctid(), 0);
    }
}

core::MigrationBreakdown Guest::migrate(topo::KernelId dest) {
    core::MigrationBreakdown breakdown{};
    if (dest == thread_.kernel_id_) return breakdown;
    thread_.mmu_->detach();
    kernel::Kernel& src = k();
    if (!src.migration().migrate_out(t(), dest, &breakdown)) {
        // Destination dead or refusing: resume locally as if the
        // migration had never been requested. A destination already
        // declared dead is refused before the checkpoint, so the task
        // still holds its core — re-acquiring would leak that core.
        if (t().on_core()) {
            bind(thread_.kernel_id_);
        } else {
            place(thread_.kernel_id_);
        }
        return breakdown;
    }
    const Nanos resumed_from = now();

    // place() rather than bind+acquire: a balancer may claim the task while
    // it waits in the destination runqueue, in which case the thread keeps
    // following the steal chain and resumes wherever it lands.
    place(dest);
    kernel::Kernel& dst = k();
    breakdown.resume = now() - resumed_from;
    breakdown.total += breakdown.resume;
    dst.metrics().histogram("migration.resume_ns").add(breakdown.resume);
    if (trace::Tracer* tr = trace::active(machine_.engine())) {
        tr->span(machine_.engine(), dst.id(), "migrate.resume", resumed_from,
                 static_cast<std::uint64_t>(t().tid));
    }
    return breakdown;
}

void Guest::yield() {
    thread_.mmu_->flush_charges();
    k().sys_yield(t());
    check_killed();
    rebalance_checkpoint();
}

void Guest::compute(Nanos ns) {
    thread_.mmu_->flush_charges();
    constexpr Nanos kQuantum = 100'000; // preemption checkpoints every 100 us
    while (ns > 0) {
        const Nanos chunk = std::min(ns, kQuantum);
        thread_.actor_->sleep_for(chunk);
        ns -= chunk;
        check_killed();
        k().sched().maybe_preempt(t());
        rebalance_checkpoint();
    }
}

std::uint32_t Guest::global_task_count() {
    thread_.mmu_->flush_charges();
    return k().ssi().global_task_count(pid());
}

std::vector<core::TaskInfo> Guest::ps() {
    thread_.mmu_->flush_charges();
    return k().ssi().ps(pid());
}

topo::KernelId Guest::least_loaded_kernel() {
    thread_.mmu_->flush_charges();
    return k().ssi().least_loaded_kernel();
}

void Guest::flush_timing() { thread_.mmu_->flush_charges(); }

} // namespace rko::api
