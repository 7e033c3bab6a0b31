/**
 * @file
 * Replicated control plane tests.
 *
 * Covers the subsystem bottom-up: the pure Raft rules (log index/term
 * discipline, up-to-date election check, one-vote-per-term), the
 * single-owner KV-backup directory, a standalone 3-replica ControlPlane
 * on a bare simulator (single leader, exactly-once intent application
 * across leader crashes and partitions, deterministic protocol), the
 * fault-plan stream independence of the new chaos classes, the cluster
 * integration (replicated scheduling under full chaos and fail-fast
 * audit, the 1-replica structural identity), the fuzz axes, and a golden snapshot of a fixed-seed
 * 3-replica chaos run (regenerate with WS_UPDATE_GOLDEN=1).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "harness/fuzz.hpp"
#include "windserve/windserve.hpp"

namespace flt = windserve::fault;
namespace hs = windserve::harness;
using namespace windserve;

// ---------------------------------------------------------------------
// ReplicatedLog: Raft index/term discipline
// ---------------------------------------------------------------------

TEST(ReplicatedLog, IndexDiscipline)
{
    ctrl::ReplicatedLog log;
    EXPECT_EQ(log.last_index(), 0u);
    EXPECT_EQ(log.last_term(), 0u);
    EXPECT_EQ(log.term_at(0), 0u); // the empty sentinel

    log.append({1, 1, ctrl::CommandKind::NoOp, 0});
    log.append({1, 2, ctrl::CommandKind::Admit, 7});
    log.append({3, 3, ctrl::CommandKind::Offload, 9});
    EXPECT_EQ(log.last_index(), 3u);
    EXPECT_EQ(log.last_term(), 3u);
    EXPECT_EQ(log.term_at(2), 1u);
    EXPECT_EQ(log.at(2).request, 7u);
    EXPECT_EQ(log.at(3).kind, ctrl::CommandKind::Offload);

    auto s = log.suffix(2, 10);
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].seq, 2u);
    EXPECT_EQ(s[1].seq, 3u);
    EXPECT_EQ(log.suffix(2, 1).size(), 1u);
    EXPECT_TRUE(log.suffix(4, 10).empty());

    log.truncate_from(2); // conflict resolution drops the suffix
    EXPECT_EQ(log.last_index(), 1u);
    EXPECT_EQ(log.last_term(), 1u);
}

TEST(ReplicatedLog, UpToDateRule)
{
    ctrl::ReplicatedLog log;
    log.append({2, 1, ctrl::CommandKind::NoOp, 0});
    log.append({2, 2, ctrl::CommandKind::Admit, 1});

    EXPECT_TRUE(log.up_to_date(3, 1));  // higher last term wins
    EXPECT_FALSE(log.up_to_date(1, 9)); // lower last term loses
    EXPECT_TRUE(log.up_to_date(2, 2));  // tie on term, equal length
    EXPECT_TRUE(log.up_to_date(2, 3));  // tie on term, longer
    EXPECT_FALSE(log.up_to_date(2, 1)); // tie on term, shorter

    ctrl::ReplicatedLog empty;
    EXPECT_TRUE(empty.up_to_date(0, 0)); // anyone matches the empty log
}

// ---------------------------------------------------------------------
// LeaderElection: term / vote / majority rules
// ---------------------------------------------------------------------

TEST(LeaderElection, CandidacyVotesAndMajority)
{
    ctrl::LeaderElection e(0, 3);
    EXPECT_EQ(e.majority(), 2u);
    EXPECT_EQ(e.role(), ctrl::Role::Follower);

    std::uint64_t t = e.start_candidacy();
    EXPECT_EQ(t, 1u);
    EXPECT_EQ(e.role(), ctrl::Role::Candidate);
    EXPECT_EQ(e.voted_for(), 0u); // voted for self

    // One peer vote completes the majority of 2 (self + one).
    EXPECT_TRUE(e.record_vote(1));
    e.become_leader();
    EXPECT_EQ(e.role(), ctrl::Role::Leader);

    // Stale-term votes never count.
    ctrl::LeaderElection f(1, 5);
    f.start_candidacy();
    EXPECT_FALSE(f.record_vote(0));
    EXPECT_FALSE(f.record_vote(1)); // 2 of 5: majority is 3
    EXPECT_TRUE(f.record_vote(1));
}

TEST(LeaderElection, OneVotePerTermAndStepDown)
{
    ctrl::LeaderElection e(2, 3);
    e.observe_term(4);
    EXPECT_EQ(e.term(), 4u);
    EXPECT_TRUE(e.try_grant_vote(4, 0));
    EXPECT_EQ(e.voted_for(), 0u);
    EXPECT_FALSE(e.try_grant_vote(4, 1)); // already voted this term
    EXPECT_TRUE(e.try_grant_vote(4, 0));  // idempotent re-grant
    EXPECT_FALSE(e.try_grant_vote(3, 1)); // stale term

    // A newer term demotes a leader and clears its vote.
    ctrl::LeaderElection l(0, 3);
    l.start_candidacy();
    l.record_vote(1);
    l.become_leader();
    EXPECT_TRUE(l.observe_term(2));
    EXPECT_EQ(l.role(), ctrl::Role::Follower);
    EXPECT_EQ(l.voted_for(), ctrl::LeaderElection::kNoVote);
    EXPECT_FALSE(l.observe_term(2)); // same term: no step-down
}

// ---------------------------------------------------------------------
// KvDirectory: single-owner coherence
// ---------------------------------------------------------------------

TEST(KvDirectory, SingleOwnerCoherence)
{
    ctrl::KvDirectory d;
    EXPECT_EQ(d.lookup(1), nullptr);

    d.record(1, 0, 100);
    ASSERT_NE(d.lookup(1), nullptr);
    EXPECT_EQ(d.lookup(1)->pod, 0u);
    EXPECT_EQ(d.lookup(1)->tokens, 100u);
    std::uint64_t v0 = d.lookup(1)->version;

    // Same-owner re-record keeps the larger count (backups only grow).
    d.record(1, 0, 60);
    EXPECT_EQ(d.lookup(1)->tokens, 100u);
    d.record(1, 0, 140);
    EXPECT_EQ(d.lookup(1)->tokens, 140u);
    EXPECT_GT(d.lookup(1)->version, v0);

    // Cross-pod record moves ownership (migration shipped the KV).
    d.record(1, 2, 140);
    EXPECT_EQ(d.lookup(1)->pod, 2u);

    // A drop from the stale previous owner is ignored.
    d.drop(1, 0);
    ASSERT_NE(d.lookup(1), nullptr);
    d.drop(1, 2);
    EXPECT_EQ(d.lookup(1), nullptr);

    // Pod invalidation wipes exactly that pod's entries.
    d.record(10, 0, 8);
    d.record(11, 0, 8);
    d.record(12, 1, 8);
    EXPECT_EQ(d.tokens_of_pod(0), 16u);
    EXPECT_EQ(d.invalidate_pod(0), 2u);
    EXPECT_EQ(d.size(), 1u);
    EXPECT_EQ(d.lookup(12)->pod, 1u);
    EXPECT_EQ(d.ids(), std::vector<std::uint64_t>{12});
    EXPECT_GT(d.records(), 0u);
    EXPECT_EQ(d.invalidations(), 2u);
}

// ---------------------------------------------------------------------
// Standalone ControlPlane on a bare simulator
// ---------------------------------------------------------------------

namespace {

ctrl::ControlPlaneConfig
standalone_config(std::size_t replicas, std::uint64_t seed)
{
    ctrl::ControlPlaneConfig cc;
    cc.replicas = replicas;
    cc.seed = seed;
    // Standalone use must shape the ingress links itself (the cluster
    // normally substitutes its NIC parameters).
    cc.link = hw::Link{hw::LinkType::InterNode, 100e9, 2e-6};
    return cc;
}

} // namespace

TEST(ControlPlane, ElectsOneLeaderAndAppliesExactlyOnce)
{
    sim::Simulator sim;
    ctrl::ControlPlane cp(sim, standalone_config(3, 7));
    cp.start();

    constexpr std::size_t kIntents = 20;
    std::vector<int> applied(kIntents, 0);
    for (std::size_t i = 0; i < kIntents; ++i)
        sim.schedule(0.5 + 0.01 * static_cast<double>(i), [&, i] {
            cp.propose(ctrl::CommandKind::Admit, i, [&, i] { ++applied[i]; });
        });
    sim.run_until(30.0);

    ASSERT_NE(cp.leader(), ctrl::ControlPlane::kNone);
    // Exactly one live leader at the maximum term.
    std::size_t leaders = 0;
    for (std::size_t k = 0; k < cp.num_replicas(); ++k)
        if (cp.role_of(k) == ctrl::Role::Leader)
            ++leaders;
    EXPECT_EQ(leaders, 1u);
    EXPECT_GE(cp.elections(), 1u);

    for (std::size_t i = 0; i < kIntents; ++i)
        EXPECT_EQ(applied[i], 1) << "intent " << i;
    EXPECT_EQ(cp.applies(), kIntents);
    EXPECT_EQ(cp.pending_intents(), 0u);
    // NoOp barrier + intents all committed, on every live replica.
    EXPECT_GE(cp.commits(), kIntents + 1);
    for (std::size_t k = 0; k < cp.num_replicas(); ++k)
        EXPECT_GE(cp.commit_index_of(k), kIntents);
    EXPECT_GT(cp.heartbeats(), 0u);
    EXPECT_GT(cp.messages_sent(), 0u);
}

TEST(ControlPlane, ProtocolIsDeterministic)
{
    auto run = [](std::uint64_t seed) {
        sim::Simulator sim;
        ctrl::ControlPlane cp(sim, standalone_config(5, seed));
        cp.start();
        for (std::size_t i = 0; i < 10; ++i)
            sim.schedule(1.0 + 0.2 * static_cast<double>(i), [&, i] {
                cp.propose(ctrl::CommandKind::Admit, i, [] {});
            });
        sim.schedule(3.0, [&] { cp.on_leader_crash(4.0, 0); });
        sim.run_until(60.0);
        return std::vector<std::uint64_t>{
            cp.elections(),    cp.commits(),       cp.applies(),
            cp.heartbeats(),   cp.messages_sent(), cp.max_term(),
            cp.failovers(),    cp.reproposals(),
            static_cast<std::uint64_t>(cp.leader()),
            sim.events_fired()};
    };
    EXPECT_EQ(run(11), run(11));
    // A different seed elects through different timeouts (sanity that
    // the seed actually steers the protocol).
    EXPECT_NE(run(11), run(12));
}

TEST(ControlPlane, LeaderCrashMidDispatchAppliesExactlyOnce)
{
    // The regression scenario: intents proposed at the very instant the
    // acting leader crashes — before they commit. The next leader must
    // re-append and apply each exactly once.
    sim::Simulator sim;
    ctrl::ControlPlane cp(sim, standalone_config(3, 21));
    cp.start();

    constexpr std::size_t kIntents = 8;
    std::vector<int> applied(kIntents, 0);
    sim.schedule(2.0, [&] {
        ASSERT_NE(cp.leader(), ctrl::ControlPlane::kNone)
            << "no leader after 2 s of quiet fabric";
        for (std::size_t i = 0; i < kIntents; ++i)
            cp.propose(ctrl::CommandKind::Redispatch, i,
                       [&, i] { ++applied[i]; });
        cp.on_leader_crash(30.0, 0); // mid-dispatch, repair far away
    });
    sim.run_until(60.0);

    EXPECT_EQ(cp.leader_crashes(), 1u);
    EXPECT_GE(cp.failovers(), 1u);
    ASSERT_FALSE(cp.failover_latency().empty());
    EXPECT_GT(cp.failover_latency().mean(), 0.0);
    EXPECT_GE(cp.reproposals(), kIntents);
    for (std::size_t i = 0; i < kIntents; ++i)
        EXPECT_EQ(applied[i], 1) << "intent " << i;
    EXPECT_EQ(cp.applies(), kIntents);
    EXPECT_EQ(cp.pending_intents(), 0u);
}

TEST(ControlPlane, AppliedIntentsLeaveThePendingSet)
{
    // Thousands of proposals across a leader change: every intent is
    // applied once and then dropped, so heartbeats and later leaders
    // scan only what is still pending.
    sim::Simulator sim;
    ctrl::ControlPlane cp(sim, standalone_config(3, 5));
    cp.start();

    constexpr std::size_t kIntents = 4000;
    std::vector<int> applied(kIntents, 0);
    for (std::size_t i = 0; i < kIntents; ++i)
        sim.schedule(1.0 + 0.005 * static_cast<double>(i), [&, i] {
            cp.propose(ctrl::CommandKind::Admit, i, [&, i] { ++applied[i]; });
        });
    std::uint64_t pending_mid = 0;
    sim.schedule(8.0, [&] { cp.on_leader_crash(4.0, 0); });
    sim.schedule(18.0, [&] { pending_mid = cp.pending_intents(); });
    sim.run_until(40.0);

    EXPECT_EQ(cp.leader_crashes(), 1u);
    EXPECT_GE(cp.failovers(), 1u);
    EXPECT_LT(pending_mid, 100u); // bounded by the in-flight window
    for (std::size_t i = 0; i < kIntents; ++i)
        ASSERT_EQ(applied[i], 1) << "intent " << i;
    EXPECT_EQ(cp.applies(), kIntents);
    EXPECT_EQ(cp.pending_intents(), 0u);

    // Another leader change after everything applied re-proposes
    // nothing: no applied intent is still on record to re-append.
    std::uint64_t reproposals = cp.reproposals();
    std::uint64_t elections = cp.elections();
    sim.schedule(1.0, [&] { cp.on_leader_crash(2.0, 0); });
    sim.run_until(60.0);
    EXPECT_GT(cp.elections(), elections);
    EXPECT_EQ(cp.reproposals(), reproposals);
    EXPECT_EQ(cp.pending_intents(), 0u);
    EXPECT_EQ(cp.applies(), kIntents);
}

TEST(ControlPlane, PartitionHealsWithExactlyOnceApplies)
{
    sim::Simulator sim;
    ctrl::ControlPlane cp(sim, standalone_config(3, 33));
    cp.start();

    constexpr std::size_t kIntents = 6;
    std::vector<int> applied(kIntents, 0);
    sim.schedule(2.0, [&] {
        std::size_t l = cp.leader();
        ASSERT_NE(l, ctrl::ControlPlane::kNone);
        cp.on_partition(3.0, l); // wall off the acting leader
        for (std::size_t i = 0; i < kIntents; ++i)
            cp.propose(ctrl::CommandKind::Offload, i,
                       [&, i] { ++applied[i]; });
    });
    sim.run_until(60.0);

    EXPECT_EQ(cp.partitions(), 1u);
    EXPECT_GE(cp.failovers(), 1u);
    for (std::size_t i = 0; i < kIntents; ++i)
        EXPECT_EQ(applied[i], 1) << "intent " << i;
    EXPECT_EQ(cp.applies(), kIntents);
    // The healed replica rejoins: everyone converges on one term and
    // every live replica reaches the full commit index.
    for (std::size_t k = 0; k < cp.num_replicas(); ++k)
        EXPECT_GE(cp.commit_index_of(k), kIntents);
}

// ---------------------------------------------------------------------
// FaultPlan: the new chaos classes fork after the historical streams
// ---------------------------------------------------------------------

TEST(FaultPlan, CtrlStreamsNeverPerturbHistoricalSchedules)
{
    flt::FaultConfig base;
    base.horizon = 120.0;
    base.warmup = 5.0;
    base.seed = 99;
    base.crash_mtbf = 10.0;
    base.mean_repair = 5.0;
    base.link_mtbf = 25.0;
    base.mean_outage = 2.0;

    flt::FaultConfig with = base;
    with.leader_mtbf = 12.0;
    with.mean_leader_repair = 3.0;
    with.partition_mtbf = 20.0;
    with.mean_partition = 1.5;

    auto strip_ctrl = [](const flt::FaultPlan &p) {
        std::vector<flt::FaultEvent> out;
        for (const auto &ev : p.events())
            if (ev.kind != flt::FaultKind::LeaderCrash &&
                ev.kind != flt::FaultKind::ControlPartition)
                out.push_back(ev);
        return out;
    };
    auto a = strip_ctrl(flt::FaultPlan::generate(base));
    auto b = strip_ctrl(flt::FaultPlan::generate(with));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].param, b[i].param);
    }

    std::size_t leader = 0, part = 0;
    flt::FaultPlan plan = flt::FaultPlan::generate(with);
    for (const auto &ev : plan.events()) {
        if (ev.kind == flt::FaultKind::LeaderCrash) {
            ++leader;
            EXPECT_GT(ev.param, 0.0); // repair delay
        }
        if (ev.kind == flt::FaultKind::ControlPartition) {
            ++part;
            EXPECT_GT(ev.param, 0.0); // partition duration
        }
    }
    EXPECT_GT(leader, 0u);
    EXPECT_GT(part, 0u);
}

// ---------------------------------------------------------------------
// Cluster integration
// ---------------------------------------------------------------------

namespace {

// Chaos mix used by the integration + golden runs: instance crashes
// plus aggressive control-plane faults in the trace's active window.
flt::FaultConfig
ctrl_chaos_config()
{
    flt::FaultConfig fc;
    fc.horizon = 120.0;
    fc.warmup = 5.0;
    fc.seed = 4242;
    fc.crash_mtbf = 25.0;
    fc.mean_repair = 5.0;
    fc.leader_mtbf = 8.0;
    fc.mean_leader_repair = 2.0;
    fc.partition_mtbf = 20.0;
    fc.mean_partition = 1.5;
    return fc;
}

hs::ExperimentConfig
replicated_cluster_config()
{
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 1;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 300;
    ec.seed = 20260809;
    ec.horizon = 1800.0;
    ec.ctrl_replicas = 3;
    ec.faults = ctrl_chaos_config();
    return ec;
}

} // namespace

TEST(ClusterCtrl, BuiltOnlyAboveOneReplica)
{
    // The 1-replica structural identity: no control plane object means
    // no extra events, no extra RNG draws — the historical coordinator
    // path, byte for byte (the cluster goldens pin the numbers).
    core::ClusterConfig one;
    one.num_nodes = 2;
    one.pods_per_node = 1;
    one.pod.seed = 5;
    ASSERT_EQ(one.ctrl.replicas, 1u); // default keeps the legacy path
    core::ClusterServeSystem legacy(one);
    EXPECT_EQ(legacy.ctrl(), nullptr);

    core::ClusterConfig rep = one;
    rep.ctrl.replicas = 3;
    core::ClusterServeSystem replicated(rep);
    ASSERT_NE(replicated.ctrl(), nullptr);
    EXPECT_EQ(replicated.ctrl()->num_replicas(), 3u);
    EXPECT_EQ(replicated.ctrl()->leader(), ctrl::ControlPlane::kNone);
}

TEST(ClusterCtrl, ReplicatedFaultFreeRunFinishesEverything)
{
    // No chaos: the log is pure latency. Every decision still routes
    // through commit, and the run drains completely.
    hs::ExperimentConfig ec = replicated_cluster_config();
    ec.faults.reset();
    ec.audit = true;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_EQ(r.metrics.num_finished, 300u);
    EXPECT_GE(r.metrics.ctrl_elections, 1u);
    EXPECT_GT(r.metrics.ctrl_commits, 300u); // admits + offloads + NoOps
    EXPECT_EQ(r.metrics.leader_crashes, 0u);
    EXPECT_EQ(r.metrics.failovers, 0u);
}

TEST(ClusterCtrl, ChaosRunUnderFullAuditWithFailovers)
{
    // The acceptance run: leader crashes and partitions mid-dispatch on
    // a 2-node replicated cluster under the fail-fast auditor (whose
    // ctrl invariants include split-brain and double-apply). Zero
    // violations and zero lost requests: everything is accounted for.
    hs::ExperimentConfig ec = replicated_cluster_config();
    ec.audit = true;
    auto r = hs::run_experiment(ec);
    const auto &m = r.metrics;
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_GT(m.leader_crashes + m.control_partitions, 0u);
    EXPECT_GT(m.failovers, 0u);
    ASSERT_FALSE(m.failover_latency.empty());
    EXPECT_GT(m.failover_latency.mean(), 0.0);
    EXPECT_GE(m.ctrl_elections, 2u); // the initial one plus failovers
    EXPECT_EQ(m.num_finished + m.num_unfinished, 300u);
    EXPECT_GT(m.num_finished, 0u);
    EXPECT_LE(m.num_aborted, m.num_unfinished);
}

TEST(ClusterCtrl, DirectoryTracksPodBackupsCoherently)
{
    // Drive the replicated cluster directly and check the directory
    // against the pods' authoritative registries: every entry names a
    // real pod, and redispatch consults resolve against it.
    core::ClusterConfig cc;
    cc.num_nodes = 2;
    cc.pods_per_node = 1;
    cc.pod.seed = 77;
    cc.ctrl.replicas = 3;
    core::ClusterServeSystem sys(cc);
    ASSERT_NE(sys.ctrl(), nullptr);

    workload::TraceConfig tc;
    tc.dataset = workload::DatasetConfig::sharegpt();
    tc.arrival.kind = workload::ArrivalKind::Poisson;
    tc.arrival.rate = 10.0;
    tc.num_requests = 250;
    tc.seed = 3;

    engine::RunOptions opts;
    opts.horizon = 1800.0;
    opts.faults = ctrl_chaos_config();
    auto run = sys.run(workload::TraceBuilder(tc).build(), opts);
    EXPECT_EQ(run.metrics.num_finished + run.metrics.num_unfinished, 250u);

    const auto &dir = sys.ctrl()->directory();
    EXPECT_GT(dir.records(), 0u); // proactive checkpoints were published
    for (std::uint64_t id : dir.ids()) {
        const auto *e = dir.lookup(id);
        ASSERT_NE(e, nullptr);
        EXPECT_LT(e->pod, sys.num_pods());
        EXPECT_GT(e->tokens, 0u);
    }
    if (run.metrics.fault_redispatches > 0) {
        EXPECT_GT(sys.directory_consults(), 0u);
    }
    EXPECT_LE(sys.directory_hits(), sys.directory_consults());
}

// ---------------------------------------------------------------------
// Fuzz axes
// ---------------------------------------------------------------------

TEST(CtrlFuzz, NewAxesNeverPerturbHistoricalConfigs)
{
    // The defaulted new parameters reproduce the historical configs
    // exactly, and ctrl-chaos draws come strictly after every existing
    // draw: the base config and the instance-crash dials are untouched.
    for (std::uint64_t seed : {101ull, 202ull, 303ull}) {
        auto old_cfg = hs::make_fuzz_config(seed, hs::SystemKind::WindServe,
                                            true, 2);
        auto new_cfg = hs::make_fuzz_config(seed, hs::SystemKind::WindServe,
                                            true, 2, 1, false);
        EXPECT_EQ(old_cfg.num_requests, new_cfg.num_requests);
        EXPECT_EQ(old_cfg.per_gpu_rate, new_cfg.per_gpu_rate);
        EXPECT_EQ(old_cfg.kv_capacity_tokens_override,
                  new_cfg.kv_capacity_tokens_override);
        EXPECT_EQ(old_cfg.ctrl_replicas, 1u);
        EXPECT_EQ(new_cfg.ctrl_replicas, 1u);
        ASSERT_TRUE(old_cfg.faults && new_cfg.faults);
        EXPECT_EQ(old_cfg.faults->crash_mtbf, new_cfg.faults->crash_mtbf);
        EXPECT_EQ(old_cfg.faults->seed, new_cfg.faults->seed);
        EXPECT_EQ(old_cfg.faults->leader_mtbf, 0.0);

        auto chaos_cfg = hs::make_fuzz_config(seed, hs::SystemKind::WindServe,
                                              true, 2, 3, true);
        EXPECT_EQ(chaos_cfg.ctrl_replicas, 3u);
        ASSERT_TRUE(chaos_cfg.faults);
        EXPECT_EQ(chaos_cfg.faults->crash_mtbf, old_cfg.faults->crash_mtbf);
        EXPECT_EQ(chaos_cfg.faults->mean_repair,
                  old_cfg.faults->mean_repair);
        EXPECT_GT(chaos_cfg.faults->leader_mtbf, 0.0);
    }
}

TEST(CtrlFuzz, CtrlChaosCampaignDeterministicAcrossJobs)
{
    hs::FuzzOptions opt;
    opt.iterations = 2;
    opt.base_seed = 510;
    opt.systems = {hs::SystemKind::WindServe};
    opt.chaos = true;
    opt.ctrl_chaos = true;
    opt.replicas = 3;

    opt.jobs = 1;
    auto seq = hs::run_fuzz(opt);
    opt.jobs = 4;
    auto par = hs::run_fuzz(opt);

    EXPECT_EQ(seq.total_violations, 0u);
    EXPECT_EQ(par.total_violations, 0u);
    ASSERT_EQ(seq.results.size(), par.results.size());
    for (std::size_t i = 0; i < seq.results.size(); ++i) {
        EXPECT_EQ(seq.results[i].checksum, par.results[i].checksum)
            << "case " << i << " seed " << seq.results[i].seed;
        EXPECT_EQ(seq.results[i].finished, par.results[i].finished);
    }
}

// ---------------------------------------------------------------------
// Golden snapshot of a fixed-seed 3-replica chaos run. Mirrors
// test_fault.cpp's idiom; regenerate with WS_UPDATE_GOLDEN=1.
// ---------------------------------------------------------------------

namespace {

constexpr double kRelTol = 0.05;

std::string
ctrl_golden_path()
{
    return std::string(WS_GOLDEN_DIR) + "/ctrl_cluster_metrics.txt";
}

std::vector<std::pair<std::string, double>>
ctrl_snapshot()
{
    hs::ExperimentConfig ec = replicated_cluster_config();
    ec.audit = true;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);

    const auto &m = r.metrics;
    return {
        {"num_finished", static_cast<double>(m.num_finished)},
        {"num_aborted", static_cast<double>(m.num_aborted)},
        {"instance_crashes", static_cast<double>(m.instance_crashes)},
        {"leader_crashes", static_cast<double>(m.leader_crashes)},
        {"control_partitions", static_cast<double>(m.control_partitions)},
        {"ctrl_elections", static_cast<double>(m.ctrl_elections)},
        {"ctrl_commits", static_cast<double>(m.ctrl_commits)},
        {"failovers", static_cast<double>(m.failovers)},
        {"failover_latency_mean", m.failover_latency.empty()
                                      ? 0.0
                                      : m.failover_latency.mean()},
        {"fault_redispatches", static_cast<double>(m.fault_redispatches)},
        {"goodput_tokens_per_s", m.goodput_tokens_per_s},
        {"ttft_p50", m.ttft.p50()},
        {"slo_attainment", m.slo_attainment},
    };
}

} // namespace

TEST(GoldenCtrlMetrics, ReplicatedChaosRunMatchesSnapshot)
{
    auto snap = ctrl_snapshot();

    if (std::getenv("WS_UPDATE_GOLDEN")) {
        std::ofstream out(ctrl_golden_path());
        ASSERT_TRUE(out) << "cannot write " << ctrl_golden_path();
        out.precision(17);
        for (const auto &[key, value] : snap)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "golden file regenerated: " << ctrl_golden_path();
    }

    std::ifstream in(ctrl_golden_path());
    std::map<std::string, double> golden;
    std::string key;
    double value;
    while (in >> key >> value)
        golden[key] = value;
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << ctrl_golden_path()
        << " — regenerate with WS_UPDATE_GOLDEN=1";
    ASSERT_EQ(golden.size(), snap.size()) << "golden key set drifted";

    for (const auto &[k, v] : snap) {
        ASSERT_TRUE(golden.count(k)) << "golden misses key " << k;
        double want = golden[k];
        double tol = kRelTol * std::max(std::abs(want), 1e-9);
        EXPECT_NEAR(v, want, tol)
            << k << " drifted: got " << v << ", golden " << want
            << " (retune intentionally with WS_UPDATE_GOLDEN=1)";
    }
}
