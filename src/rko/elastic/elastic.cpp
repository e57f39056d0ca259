#include "rko/elastic/elastic.hpp"

#include <bit>
#include <string>
#include <vector>

#include "rko/balance/balance.hpp"
#include "rko/base/assert.hpp"
#include "rko/core/dfutex.hpp"
#include "rko/core/page_owner.hpp"
#include "rko/core/process.hpp"
#include "rko/core/ssi.hpp"
#include "rko/core/thread_group.hpp"
#include "rko/home/home.hpp"
#include "rko/kernel/kernel.hpp"
#include "rko/msg/fabric.hpp"
#include "rko/msg/node.hpp"
#include "rko/task/sched.hpp"
#include "rko/trace/trace.hpp"

namespace rko::elastic {

const char* peer_state_name(PeerState state) {
    switch (state) {
    case PeerState::kAlive: return "alive";
    case PeerState::kParted: return "parted";
    case PeerState::kDead: return "dead";
    }
    return "?";
}

Elastic::Elastic(kernel::Kernel& k, const ElasticConfig& config)
    : k_(k),
      config_(config),
      probes_(k.metrics().counter("elastic.probes")),
      deaths_declared_(k.metrics().counter("elastic.deaths_declared")),
      peer_deaths_(k.metrics().counter("elastic.peer_deaths")),
      pages_rehomed_(k.metrics().counter("elastic.pages_rehomed")),
      pages_lost_(k.metrics().counter("elastic.pages_lost")),
      futex_orphans_(k.metrics().counter("elastic.futex_orphans")),
      threads_lost_(k.metrics().counter("elastic.threads_lost")),
      drain_evacuated_(k.metrics().counter("elastic.drain_evacuated")),
      drain_pages_evicted_(k.metrics().counter("elastic.drain_pages_evicted")),
      joins_(k.metrics().counter("elastic.joins")),
      home_rebuilds_(k.metrics().counter("elastic.home_rebuilds")),
      home_entries_rebuilt_(k.metrics().counter("elastic.home_entries_rebuilt")) {
    RKO_ASSERT(config_.lease_misses >= 1);
    last_seen_.fill(-1);
    for (topo::KernelId kid = 0; kid < topo::kMaxKernels; ++kid) {
        if ((config_.deferred_mask & topo::kbit(kid)) != 0) {
            state_[static_cast<std::size_t>(kid)] = PeerState::kParted;
        }
    }
}

Elastic::~Elastic() = default;

void Elastic::install() {
    k_.node().register_handler(
        msg::MsgType::kPing, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_ping(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kMembershipUpdate, msg::HandlerClass::kInline,
        [this](msg::Node& node, msg::MessagePtr m) { on_membership(node, std::move(m)); });
    k_.node().register_handler(
        msg::MsgType::kElasticEvict, msg::HandlerClass::kBlocking,
        [this](msg::Node& node, msg::MessagePtr m) { on_evict(node, std::move(m)); });
}

void Elastic::start() {
    RKO_ASSERT(reaper_ == nullptr);
    reaper_ = std::make_unique<sim::Actor>(
        k_.engine(), "reaper.k" + std::to_string(k_.id()),
        [this](sim::Actor& self) { reaper_body(self); });
    reaper_->start();
}

void Elastic::request_stop() {
    stop_ = true;
    ring_reaper();
}

bool Elastic::stopped() const { return reaper_ == nullptr || reaper_->finished(); }

void Elastic::ring_reaper() {
    if (reaper_ != nullptr && !reaper_->finished()) reaper_->unpark();
}

Nanos Elastic::balance_period() const {
    const balance::Balancer* b = const_cast<kernel::Kernel&>(k_).balancer();
    return b != nullptr ? b->config().period : 50'000;
}

Nanos Elastic::lease_duration() const {
    return static_cast<Nanos>(config_.lease_misses) * balance_period();
}

void Elastic::note_peer_seen(topo::KernelId peer) {
    if (peer < 0 || peer >= topo::kMaxKernels) return;
    if (state_[static_cast<std::size_t>(peer)] != PeerState::kAlive) return;
    last_seen_[static_cast<std::size_t>(peer)] = k_.engine().now();
}

void Elastic::check_leases() {
    if (k_.node().dead()) return;
    membership_shadow_.on_read(); // kRacyOk: recorded, never flagged
    const Nanos lease = lease_duration();
    for (const topo::KernelId peer : k_.fabric().peers_of(k_.id())) {
        if (state_[static_cast<std::size_t>(peer)] != PeerState::kAlive) continue;
        const Nanos seen = last_seen_[static_cast<std::size_t>(peer)];
        if (seen < 0) continue; // no lease until first gossip heard
        if (k_.engine().now() - seen <= lease) continue;
        // Silence alone cannot distinguish dead from idle (idle balancers
        // park and stop gossiping), so probe before declaring: a live but
        // idle kernel's dispatcher always echoes the ping.
        probes_.inc();
        msg::RpcStatus st = msg::RpcStatus::kOk;
        auto reply = k_.node().rpc_timed(
            peer, msg::make_message(msg::MsgType::kPing, msg::MsgKind::kRequest),
            balance_period(), &st);
        if (reply != nullptr) {
            last_seen_[static_cast<std::size_t>(peer)] = k_.engine().now();
            continue;
        }
        declare_dead(peer, /*broadcast=*/true);
    }
}

void Elastic::declare_dead(topo::KernelId subject, bool broadcast) {
    if (subject == k_.id()) return;
    if (state_[static_cast<std::size_t>(subject)] != PeerState::kAlive) return;
    state_[static_cast<std::size_t>(subject)] = PeerState::kDead;
    membership_shadow_.on_write();
    peer_deaths_.inc();
    // Fail the fast path first: pending rpcs to the corpse resume with
    // kPeerDead and future sends drop, before any re-homing begins.
    k_.node().set_peer_dead(subject);
    // Sharded homes: stop routing directory traffic at the corpse NOW
    // (inline with the state flip) — inherited shards answer kRetry until
    // the reaper's census rebuild completes.
    note_home_removed(subject);
    if (trace::Tracer* tr = trace::active(k_.engine())) {
        tr->instant(k_.engine(), k_.id(), "elastic.peer_dead",
                    static_cast<std::uint64_t>(subject));
    }
    if (broadcast) {
        deaths_declared_.inc();
        broadcast_membership(core::MembershipEvent::kDead, subject);
    }
    dead_queue_.push_back(subject);
    ring_reaper();
}

void Elastic::broadcast_membership(core::MembershipEvent event,
                                   topo::KernelId subject) {
    const core::MembershipUpdateMsg update{subject, event, k_.id()};
    for (const topo::KernelId peer : k_.fabric().peers_of(k_.id())) {
        if (peer == subject) continue;
        if (state_[static_cast<std::size_t>(peer)] == PeerState::kDead) continue;
        // Parted peers still listen: they need a current view to rejoin.
        k_.node().send(peer,
                       msg::make_message(msg::MsgType::kMembershipUpdate,
                                         msg::MsgKind::kOneway, update));
    }
}

void Elastic::note_home_removed(topo::KernelId subject) {
    home::Map& map = k_.home_map();
    const topo::KernelMask before = map.eligible();
    if (!map.remove_kernel(subject)) return; // already out
    if (k_.node().dead()) return; // a corpse inherits nothing
    bool queued = false;
    k_.for_each_site([&](core::ProcessSite& site) {
        for (int s = 0; s < map.shards(); ++s) {
            const topo::KernelId origin = site.origin();
            if (map.owner_among(site.pid(), origin, s, before) != subject) continue;
            if (map.owner_of(site.pid(), origin, s) != k_.id()) continue;
            site.set_home_rebuilding(s, true);
            home_rebuild_queue_.push_back(HomeRebuild{site.pid(), s, subject});
            queued = true;
        }
    });
    if (queued) ring_reaper();
}

void Elastic::process_home_rebuilds() {
    while (!home_rebuild_queue_.empty()) {
        const HomeRebuild job = home_rebuild_queue_.front();
        home_rebuild_queue_.pop_front();
        if (k_.node().dead()) continue;
        if (!k_.has_site(job.pid)) continue; // process reaped meanwhile
        core::ProcessSite& site = k_.site(job.pid);
        home_rebuilds_.inc();
        home_entries_rebuilt_.inc(
            k_.pages().rebuild_home_shard(site, job.shard, job.from));
        site.set_home_rebuilding(job.shard, false);
        if (trace::Tracer* tr = trace::active(k_.engine())) {
            tr->instant(k_.engine(), k_.id(), "elastic.home_rebuild",
                        static_cast<std::uint64_t>(job.shard));
        }
    }
}

void Elastic::on_ping(msg::Node& node, msg::MessagePtr m) {
    if (m->hdr.kind == msg::MsgKind::kRequest) {
        node.reply(*m, msg::make_message(msg::MsgType::kPing, msg::MsgKind::kReply));
    }
}

void Elastic::on_membership(msg::Node& node, msg::MessagePtr m) {
    (void)node;
    const auto& update = m->payload_as<core::MembershipUpdateMsg>();
    const auto subject = static_cast<std::size_t>(update.subject);
    if (update.subject == k_.id()) return;
    switch (update.event) {
    case core::MembershipEvent::kDead:
        declare_dead(update.subject, /*broadcast=*/false);
        break;
    case core::MembershipEvent::kParted:
        if (state_[subject] == PeerState::kAlive) {
            state_[subject] = PeerState::kParted;
            membership_shadow_.on_write();
            // The node stays reachable (it answers census/vma traffic for
            // straggling messages); it is only removed from placement.
            // Home shards it owned move to survivors just as on death —
            // except its PTE census is still answerable, so nothing is lost.
            note_home_removed(update.subject);
            if (trace::Tracer* tr = trace::active(k_.engine())) {
                tr->instant(k_.engine(), k_.id(), "elastic.peer_parted",
                            static_cast<std::uint64_t>(update.subject));
            }
        }
        break;
    case core::MembershipEvent::kJoin:
        if (state_[subject] != PeerState::kAlive) {
            state_[subject] = PeerState::kAlive;
            membership_shadow_.on_write();
            k_.node().set_peer_alive(update.subject);
            // Lease grace: stamp now so the joiner is not probed before its
            // first gossip lands.
            last_seen_[subject] = k_.engine().now();
            if (trace::Tracer* tr = trace::active(k_.engine())) {
                tr->instant(k_.engine(), k_.id(), "elastic.peer_join",
                            static_cast<std::uint64_t>(update.subject));
            }
            if (k_.balancer() != nullptr) k_.balancer()->doorbell();
        }
        break;
    }
}

void Elastic::on_evict(msg::Node& node, msg::MessagePtr m) {
    const auto& req = m->payload_as<core::ElasticEvictReq>();
    core::ElasticEvictResp resp{0};
    if (k_.has_site(req.pid)) {
        core::ProcessSite& site = k_.site(req.pid);
        if (k_.home_map().may_home(k_.id(), site.origin())) {
            resp.evicted = k_.pages().evict_holder(site, req.holder);
        }
        if (site.is_origin()) {
            // The parting kernel drops its site next; stop broadcasting VMA
            // updates at it.
            site.group().replica_mask &= ~topo::kbit(req.holder);
        }
    }
    node.reply(*m, msg::make_message(msg::MsgType::kElasticEvict,
                                     msg::MsgKind::kReply, resp));
}

void Elastic::request_kill() {
    kill_req_ = true;
    ring_reaper();
}

void Elastic::request_drain() {
    drain_req_ = true;
    ring_reaper();
}

void Elastic::request_join() {
    join_req_ = true;
    ring_reaper();
}

void Elastic::reaper_body(sim::Actor& self) {
    while (true) {
        if (kill_req_) {
            kill_req_ = false;
            do_kill(self);
        }
        if (join_req_) {
            join_req_ = false;
            do_join();
        }
        if (drain_req_) {
            drain_req_ = false;
            do_drain(self);
        }
        // Inherited home shards first: faults parked on kRetry against a
        // rebuilding shard unblock as soon as the census lands.
        process_home_rebuilds();
        while (!dead_queue_.empty()) {
            const topo::KernelId dead = dead_queue_.front();
            dead_queue_.pop_front();
            reap_dead(dead);
        }
        if (stop_) break;
        self.park();
    }
}

void Elastic::do_kill(sim::Actor& self) {
    if (k_.node().dead()) return; // already killed
    if (trace::Tracer* tr = trace::active(k_.engine())) {
        tr->instant(k_.engine(), k_.id(), "elastic.kill");
    }
    state_[static_cast<std::size_t>(k_.id())] = PeerState::kDead;
    membership_shadow_.on_write();
    // Fail-stop: the node black-holes from here on. Pending rpcs from this
    // kernel's fibers throw LocalNodeDead and unwind.
    k_.node().set_dead();
    // Kworkers parked on a directory busy bit (this kernel serves home
    // transactions with sharded homes) hold no rpc to fail — wake them so
    // they observe the dead node and unwind too.
    k_.for_each_site([&](core::ProcessSite& site) {
        for (auto& shard : site.dir_shards()) shard.busy_wait.notify_all();
    });
    // Unwind every hosted guest fiber: running threads throw at their next
    // checkpoint, blocked ones are woken into it. They exit *locally* (no
    // group messages) — the origin's reaper is the bookkeeper of record.
    if (thread_killer_) thread_killer_();
    if (k_.balancer() != nullptr) k_.balancer()->request_stop();
    // Wait for the doomed fibers to drain — and for handlers already
    // running on this kernel's workers (a leaf invalidate mid-copy holds a
    // PTE of the site) — then free what they leave: the frames belong to
    // this kernel's partition, so survivors never need them, but teardown
    // audits expect dropped sites not to leak frames.
    while (k_.live_task_count() > 0 || k_.node().handlers_running() > 0) {
        self.park_for(balance_period());
    }
    drop_all_sites();
}

void Elastic::reap_dead(topo::KernelId dead) {
    if (k_.node().dead()) return; // corpses do not reap
    k_.node().set_peer_dead(dead); // idempotent; set at declaration already
    if (trace::Tracer* tr = trace::active(k_.engine())) {
        tr->instant(k_.engine(), k_.id(), "elastic.reap",
                    static_cast<std::uint64_t>(dead));
    }

    std::vector<Pid> origin_pids;
    k_.for_each_site([&](core::ProcessSite& site) {
        if (site.is_origin()) origin_pids.push_back(site.pid());
    });

    // 1. Page ownership: strip the dead holder from every directory entry
    //    of every process homed here. Surviving sharers (or the origin)
    //    keep the data; sole-copy pages are lost and refault as zero-fill.
    //    The home map says which local sites may hold a directory slice.
    std::vector<Pid> dir_pids;
    k_.for_each_site([&](core::ProcessSite& site) {
        if (k_.home_map().may_home(k_.id(), site.origin())) {
            dir_pids.push_back(site.pid());
        }
    });
    for (const Pid pid : dir_pids) {
        const auto counts = k_.pages().rehome_dead(k_.site(pid), dead);
        pages_rehomed_.inc(counts.first);
        pages_lost_.inc(counts.second);
    }

    // 2. Futex table: dequeue the dead kernel's waiters — a grant to a
    //    corpse would be a lost wake for the bucket's surviving waiters.
    futex_orphans_.inc(
        static_cast<std::uint64_t>(k_.futex().remove_kernel_waiters(dead)));

    // 3. Thread groups: members located on the dead kernel died with it.
    //    The api hook publishes each one's CLEARTID word so joiners parked
    //    on it unblock through the normal futex path.
    for (const Pid pid : origin_pids) {
        core::ProcessSite& site = k_.site(pid);
        const std::vector<Tid> lost = k_.groups().reap_kernel(site, dead);
        for (const Tid tid : lost) {
            threads_lost_.inc();
            if (thread_lost_) thread_lost_(pid, tid);
        }
    }

    // 4. Migration imports whose fiber died on the dead kernel mid-flight
    //    (the kMigrate landed here but the sender's rpc wait was killed):
    //    retire the orphaned record so this kernel can still quiesce.
    std::vector<Tid> orphans;
    k_.for_each_task_mut([&](task::Task& t) {
        if (t.state != task::TaskState::kNew) return;
        if (t.actor == nullptr || !t.actor->finished()) return;
        orphans.push_back(t.tid);
    });
    for (const Tid tid : orphans) {
        task::Task* t = k_.find_task(tid);
        if (t == nullptr) continue;
        t->actor = nullptr;
        k_.groups().task_exited(*t, 137);
        t->state = task::TaskState::kExited;
    }
}

std::uint32_t Elastic::evacuate_once() {
    std::uint32_t moved = 0;
    // Queued threads: detach them; each ships itself through the normal
    // migration path when its core-less acquire returns.
    for (;;) {
        const topo::KernelId target = pick_target();
        if (target < 0) break;
        task::Task* t = k_.sched().steal_queued(0, target);
        if (t == nullptr) break;
        drain_evacuated_.inc();
        ++moved;
    }
    std::vector<Tid> tids;
    k_.for_each_task_mut([&](task::Task& t) { tids.push_back(t.tid); });
    for (const Tid tid : tids) {
        task::Task* t = k_.find_task(tid);
        if (t == nullptr || t->shadow || t->actor == nullptr) continue;
        if (t->balance_target >= 0) continue; // already nudged
        const topo::KernelId target = pick_target();
        if (target < 0) break;
        switch (t->state) {
        case task::TaskState::kRunning:
            // Self-migrates at its next preemption checkpoint.
            t->balance_target = target;
            drain_evacuated_.inc();
            ++moved;
            break;
        case task::TaskState::kBlocked: {
            // Withdraw the waiter, then wake it spuriously (legal under the
            // futex contract); the post-wait checkpoint migrates it and it
            // re-waits over there. With the hierarchical tier the waiter
            // usually parks in this kernel's own convoy — withdraw it there
            // first (cancel_local also settles the origin's aggregate).
            // uaddr 0 = wildcard: only the waiting fiber knows its word.
            t->balance_target = target;
            if (k_.futex().cancel_local(t->pid, tid, t->origin)) {
                k_.sched().wake(*t);
                drain_evacuated_.inc();
                ++moved;
                break;
            }
            msg::RpcStatus st = msg::RpcStatus::kOk;
            auto reply = k_.node().rpc(
                t->origin,
                msg::make_message(msg::MsgType::kFutexCancel, msg::MsgKind::kRequest,
                                  core::FutexCancelReq{t->pid, tid, 0}),
                &st);
            if (reply == nullptr) break; // origin unreachable; its reap owns us
            if (reply->payload_as<core::FutexCancelResp>().removed) {
                k_.sched().wake(*t);
            }
            // !removed: a grant is already in flight and will wake it.
            drain_evacuated_.inc();
            ++moved;
            break;
        }
        default:
            break; // kNew/kMigrating resolve on their own; revisit next sweep
        }
    }
    return moved;
}

void Elastic::do_drain(sim::Actor& self) {
    if (k_.node().dead()) return;
    if (state_[static_cast<std::size_t>(k_.id())] != PeerState::kAlive) return;
    if (trace::Tracer* tr = trace::active(k_.engine())) {
        tr->instant(k_.engine(), k_.id(), "elastic.drain");
    }
    draining_ = true;
    if (k_.balancer() != nullptr) k_.balancer()->request_stop();
    // Final gossip row advertising zero capacity so peers neither push to
    // nor steal from a parting kernel while it evacuates.
    const core::LoadGossipMsg zero{k_.id(), 0, 0, 0, k_.engine().now()};
    for (const topo::KernelId peer : k_.fabric().peers_of(k_.id())) {
        if (state_[static_cast<std::size_t>(peer)] != PeerState::kAlive) continue;
        k_.node().send(peer, msg::make_message(msg::MsgType::kLoadGossip,
                                               msg::MsgKind::kOneway, zero));
    }
    while (k_.live_task_count() > 0) {
        evacuate_once();
        self.park_for(balance_period());
    }
    // Empty of threads. Our directory slices must move to survivors while
    // our PTEs still exist (their census reconstructs the entries); only
    // then can the homes pull our copies back and the bare sites drop.
    // With one shard we hold no slice (a drained kernel is never an
    // origin) and only the origin evicts.
    std::vector<Pid> pids;
    k_.for_each_site([&](core::ProcessSite& site) { pids.push_back(site.pid()); });
    // 1. Stop serving new directory traffic (stale-routed faults get
    //    kRetry) and let in-flight transactions at our slices settle.
    k_.home_map().remove_kernel(k_.id());
    auto slices_busy = [&] {
        bool busy = false;
        k_.for_each_site([&](core::ProcessSite& site) {
            for (auto& shard : site.dir_shards()) {
                if (!shard.pending.empty()) busy = true;
                for (const auto& [vpn, e] : shard.entries) {
                    (void)vpn;
                    if (e.busy) busy = true;
                }
            }
        });
        return busy;
    };
    while (slices_busy()) self.park_for(balance_period());
    // 2. Announce the part: survivors inherit our shards and census
    //    everyone's PTEs — including ours, which are still mapped.
    state_[static_cast<std::size_t>(k_.id())] = PeerState::kParted;
    membership_shadow_.on_write();
    broadcast_membership(core::MembershipEvent::kParted, k_.id());
    // 3. Every home the map names sweeps our copies out of its slice (the
    //    handler waits out a mid-flight census rebuild first).
    for (const Pid pid : pids) {
        core::ProcessSite& site = k_.site(pid);
        RKO_ASSERT_MSG(!site.is_origin(), "drain of an origin kernel");
        topo::KernelMask targets =
            k_.home_map().homes(site.origin()) & ~topo::kbit(k_.id());
        for (; targets != 0; targets &= targets - 1) {
            const auto peer = static_cast<topo::KernelId>(std::countr_zero(targets));
            if (state_[static_cast<std::size_t>(peer)] == PeerState::kDead) continue;
            msg::RpcStatus st = msg::RpcStatus::kOk;
            auto reply = msg::rpc_retry(
                k_.node(), peer,
                [&] {
                    return msg::make_message(msg::MsgType::kElasticEvict,
                                             msg::MsgKind::kRequest,
                                             core::ElasticEvictReq{pid, k_.id()});
                },
                4, balance_period() / 4 + 1, &st);
            if (reply != nullptr) {
                drain_pages_evicted_.inc(
                    reply->payload_as<core::ElasticEvictResp>().evicted);
            }
        }
        k_.drop_site(pid);
    }
    draining_ = false;
    if (trace::Tracer* tr = trace::active(k_.engine())) {
        tr->instant(k_.engine(), k_.id(), "elastic.parted");
    }
}

void Elastic::do_join() {
    if (k_.node().dead()) return; // killed kernels cannot rejoin
    if (trace::Tracer* tr = trace::active(k_.engine())) {
        tr->instant(k_.engine(), k_.id(), "elastic.join");
    }
    state_[static_cast<std::size_t>(k_.id())] = PeerState::kAlive;
    membership_shadow_.on_write();
    joins_.inc();
    const Nanos now = k_.engine().now();
    for (const topo::KernelId peer : k_.fabric().peers_of(k_.id())) {
        const auto p = static_cast<std::size_t>(peer);
        if (state_[p] == PeerState::kDead) continue;
        k_.node().send(peer,
                       msg::make_message(msg::MsgType::kMembershipUpdate,
                                         msg::MsgKind::kOneway,
                                         core::MembershipUpdateMsg{
                                             k_.id(), core::MembershipEvent::kJoin,
                                             k_.id()}));
        // Lease grace both ways: do not probe peers before hearing them.
        if (state_[p] == PeerState::kAlive) last_seen_[p] = now;
    }
    if (k_.balancer() != nullptr && k_.balancer()->stopped()) {
        k_.balancer()->start();
    }
}

topo::KernelId Elastic::pick_target() const {
    membership_shadow_.on_read(); // kRacyOk: recorded, never flagged
    topo::KernelId best = -1;
    std::uint32_t best_idle = 0;
    for (const topo::KernelId peer : k_.fabric().peers_of(k_.id())) {
        if (state_[static_cast<std::size_t>(peer)] != PeerState::kAlive) continue;
        const core::LoadEntry& e = k_.ssi().table_entry(peer);
        const std::uint32_t idle = e.stamp >= 0 ? e.idle_cores : 0;
        if (best < 0 || idle > best_idle) {
            best = peer;
            best_idle = idle;
        }
    }
    return best;
}

void Elastic::drop_all_sites() {
    std::vector<Pid> pids;
    k_.for_each_site([&](core::ProcessSite& site) { pids.push_back(site.pid()); });
    for (const Pid pid : pids) k_.drop_site(pid);
}

} // namespace rko::elastic
