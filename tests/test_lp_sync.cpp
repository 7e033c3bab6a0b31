/**
 * @file
 * Unit suite for the conservative-lookahead LP engine (sim::LpScheduler
 * + core::cluster_lookahead_floor): lookahead-floor derivation from
 * topology latencies, window-bound computation, the LP clock-advance
 * bound, cross-LP (time, seq) tie-break determinism, the zero-lookahead
 * fallback to lockstep pumping, a chaos campaign that kills pods
 * mid-offload and replays the same seed, a 2-node golden snapshot, and
 * the rejection of multi-threaded run requests.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_system.hpp"
#include "harness/fuzz.hpp"
#include "hw/topology.hpp"
#include "simcore/lp.hpp"

namespace hs = windserve::harness;
using windserve::core::cluster_lookahead_floor;
using windserve::sim::LpScheduler;
using windserve::sim::SimTime;
using windserve::sim::Simulator;

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
} // namespace

// ---------------------------------------------------------------------
// Lookahead floor from topology latencies
// ---------------------------------------------------------------------

TEST(LookaheadFloor, MultiNodeDefaultIsNicLatency)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 4;
    windserve::hw::Topology topo(tc);
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), tc.nic_latency);
}

TEST(LookaheadFloor, PerPairLinkOverrideLowersTheFloor)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 4;
    tc.inter_node_links.push_back({0, 1, 100e9, 5e-6});
    tc.inter_node_links.push_back({1, 2, 100e9, 80e-6});
    windserve::hw::Topology topo(tc);
    // The floor is the MINIMUM over the default NIC latency and every
    // per-pair override: a slower pair cannot raise it, a faster one
    // must lower it (conservative = no cross-LP interaction can land
    // earlier than the floor).
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), 5e-6);
}

TEST(LookaheadFloor, SlowerOverrideDoesNotRaiseTheFloor)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 2;
    tc.inter_node_links.push_back({0, 1, 100e9, 200e-6});
    windserve::hw::Topology topo(tc);
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), tc.nic_latency);
}

TEST(LookaheadFloor, SingleNodeMultiPodUsesPcieRootComplex)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 1;
    windserve::hw::Topology topo(tc);
    // Pods of one node exchange KV over the PCIe root complex: one hop
    // up, one hop down.
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), 2 * tc.link_latency);
}

TEST(LookaheadFloor, ClusterSystemAdoptsTheFloorAsControlLatency)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 2;
    auto system = hs::make_system(ec);
    auto *cs =
        dynamic_cast<windserve::core::ClusterServeSystem *>(system.get());
    ASSERT_NE(cs, nullptr);
    windserve::hw::TopologyConfig tc = ec.scenario.topology;
    tc.num_nodes = 2;
    EXPECT_DOUBLE_EQ(cs->lookahead(),
                     cluster_lookahead_floor(windserve::hw::Topology(tc)));
}

// ---------------------------------------------------------------------
// Window-bound computation (the LP clock-advance bound)
// ---------------------------------------------------------------------

TEST(LpWindow, PlainWindowExtendsOneQuantum)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, kInf, 0.0, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 1.5);
    EXPECT_DOUBLE_EQ(w.incl, 1.0);
}

TEST(LpWindow, NeverRunsPastAPendingHubEvent)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, 1.2, 0.0, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 1.2);
    EXPECT_DOUBLE_EQ(w.incl, 1.0);
}

TEST(LpWindow, NeverRunsPastAPendingTelemetryTick)
{
    // Next tick at 1.25 truncates the window inclusively: events at
    // exactly the tick still belong to this window, events past it
    // must wait for the sample.
    auto w = LpScheduler::compute_window(1.1, 0.5, kInf, 0.25, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 1.25);
    EXPECT_DOUBLE_EQ(w.incl, 1.25);
}

TEST(LpWindow, TickLandingOnT0IsItsOwnWindow)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, kInf, 0.25, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 1.0);
    EXPECT_DOUBLE_EQ(w.incl, 1.0);
}

TEST(LpWindow, HorizonTruncatesInclusively)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, kInf, 0.0, 1.3);
    EXPECT_DOUBLE_EQ(w.excl, 1.3);
    EXPECT_DOUBLE_EQ(w.incl, 1.3);
}

TEST(LpWindow, ZeroQuantumDegeneratesToLockstep)
{
    // W = 0: the window still covers t0 itself (progress guarantee),
    // and nothing else — conservative sequential pumping.
    auto w = LpScheduler::compute_window(2.0, 0.0, kInf, 0.0, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 2.0);
    EXPECT_DOUBLE_EQ(w.incl, 2.0);
}

// ---------------------------------------------------------------------
// LP clock-advance bound and cross-LP tie-break determinism
// ---------------------------------------------------------------------

// A hub event must never observe an LP clock past the hub's own
// timestamp, and an LP event past the hub event's time must not have
// fired yet — the conservative bound, observable at the hub phase.
TEST(LpSync, HubPhaseSeesParkedLpClocks)
{
    Simulator hub;
    Simulator lp0, lp1;
    LpScheduler::Config cfg;
    // A 1s quantum puts every event below into its own window.
    cfg.lookahead = 1.0;
    LpScheduler sched(hub, cfg);
    sched.add_lp(lp0);
    sched.add_lp(lp1);

    std::vector<std::string> order;
    lp0.schedule_at(0.5, [&] { order.push_back("lp0@0.5"); });
    lp0.schedule_at(5.0, [&] { order.push_back("lp0@5.0"); });
    lp1.schedule_at(3.0, [&] { order.push_back("lp1@3.0"); });
    hub.schedule_at(1.0, [&] {
        order.push_back("hub@1.0");
        EXPECT_TRUE(sched.in_hub_phase());
        // Both LPs are parked exactly at the hub timestamp: lp0's next
        // local event is at 5.0, lp1's at 3.0, so neither clock may
        // have passed 1.0 and neither future event may have fired.
        EXPECT_DOUBLE_EQ(lp0.now(), 1.0);
        EXPECT_DOUBLE_EQ(lp1.now(), 1.0);
    });

    SimTime end = sched.run_until(100.0);
    EXPECT_FALSE(sched.in_hub_phase());
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "lp0@0.5");
    EXPECT_EQ(order[1], "hub@1.0");
    EXPECT_EQ(order[2], "lp1@3.0");
    EXPECT_EQ(order[3], "lp0@5.0");
    // Every clock settles on the global last-event time.
    EXPECT_DOUBLE_EQ(end, 5.0);
    EXPECT_DOUBLE_EQ(hub.now(), 5.0);
    EXPECT_DOUBLE_EQ(lp0.now(), 5.0);
    EXPECT_DOUBLE_EQ(lp1.now(), 5.0);
}

// Messages posted at the SAME timestamp from different LPs are
// delivered in (LP index, post order): windows run the LPs in index
// order, and the heap's insertion-seq tie-break makes that a total
// order.
TEST(LpSync, SameTimeMessagesDeliverInLpIndexThenPostOrder)
{
    Simulator hub;
    Simulator lp0, lp1, lp2;
    LpScheduler::Config cfg;
    cfg.lookahead = 1.0;
    LpScheduler sched(hub, cfg);
    sched.add_lp(lp0);
    sched.add_lp(lp1);
    sched.add_lp(lp2);

    std::vector<std::string> order;
    auto sender = [&](Simulator &sim, std::size_t idx) {
        sim.schedule_at(0.25, [&, idx] {
            // Two messages per LP, all for the identical instant.
            sched.post(2.0, [&order, idx] {
                order.push_back("lp" + std::to_string(idx) + ".a");
            });
            sched.post(2.0, [&order, idx] {
                order.push_back("lp" + std::to_string(idx) + ".b");
            });
        });
    };
    // Register senders in reverse so delivery order provably comes
    // from the LP INDEX, not scheduling happenstance.
    sender(lp2, 2);
    sender(lp1, 1);
    sender(lp0, 0);

    sched.run_until(10.0);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], "lp0.a");
    EXPECT_EQ(order[1], "lp0.b");
    EXPECT_EQ(order[2], "lp1.a");
    EXPECT_EQ(order[3], "lp1.b");
    EXPECT_EQ(order[4], "lp2.a");
    EXPECT_EQ(order[5], "lp2.b");
    EXPECT_EQ(sched.messages_posted(), 6u);
}

// Zero lookahead + zero window quantum = lockstep pumping: every
// window fires exactly one timestamp, so the global firing order is
// the merged time order.
TEST(LpSync, ZeroLookaheadFallsBackToSequentialPumping)
{
    Simulator hub;
    Simulator lp0, lp1;
    LpScheduler::Config cfg;
    cfg.lookahead = 0.0;
    cfg.window = 0.0;
    LpScheduler sched(hub, cfg);
    sched.add_lp(lp0);
    sched.add_lp(lp1);

    std::vector<double> fired;
    for (double t : {0.1, 0.3, 0.5})
        lp0.schedule_at(t, [&fired, t] { fired.push_back(t); });
    for (double t : {0.2, 0.4})
        lp1.schedule_at(t, [&fired, t] { fired.push_back(t); });

    sched.run_until(1.0);
    ASSERT_EQ(fired.size(), 5u);
    EXPECT_EQ(fired, (std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5}));
    // One lockstep window per distinct timestamp, no hub phases (the
    // hub never holds the minimum here).
    EXPECT_EQ(sched.windows(), 5u);
    EXPECT_EQ(sched.effective_window(), 0.0);
}

// Runs execute on the calling thread; asking for more is an error, not
// a silently ignored knob.
TEST(LpSync, RunRejectsIntraThreadsOtherThanOne)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.num_requests = 20;
    auto system = hs::make_system(ec);
    windserve::engine::RunOptions opts;
    opts.intra_threads = 2;
    EXPECT_THROW(system->run(hs::make_trace(ec), opts),
                 std::invalid_argument);

    ec.intra_threads = 2;
    EXPECT_THROW(hs::run_experiment(ec), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Chaos campaign: pods killed mid-offload, replayed from the exact same
// seed.
// ---------------------------------------------------------------------

TEST(LpChaos, MidOffloadCrashCampaignMatchesSequentialReplay)
{
    std::uint64_t offload_cases = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const hs::FuzzAxes axes{/*chaos=*/true, /*nodes=*/2};
        hs::ExperimentConfig cfg =
            hs::make_fuzz_config(seed, hs::SystemKind::WindServe, axes);
        // Campaign-local pressure: a tiny KV pool plus low watermarks
        // keep decode offloads in flight when the chaos schedule kills
        // pods (the fuzz traces are too small to trip the stock pair).
        cfg.kv_capacity_tokens_override = 2560;
        cfg.offload_highwater = 0.10;
        cfg.offload_lowwater = 0.08;

        hs::FuzzResult res = hs::run_fuzz_case(cfg, axes);
        EXPECT_EQ(res.audit_violations, 0u) << "seed=" << seed;

        // Replay the same seed with the system held, so the cluster
        // counters show how often the offload path actually engaged
        // (run_fuzz_case only returns the summary).
        auto system = hs::make_system(cfg);
        windserve::engine::RunOptions opts;
        opts.slo = cfg.scenario.slo;
        opts.horizon = cfg.horizon;
        opts.faults = cfg.faults;
        auto run = system->run(hs::make_trace(cfg), opts);
        auto *cs = dynamic_cast<windserve::core::ClusterServeSystem *>(
            system.get());
        ASSERT_NE(cs, nullptr) << "seed=" << seed;
        offload_cases += cs->cross_offloads() > 0 ? 1 : 0;
        EXPECT_EQ(hs::result_checksum(run.requests), res.checksum)
            << "seed=" << seed;
        EXPECT_EQ(run.metrics.num_finished, res.finished)
            << "seed=" << seed;
        EXPECT_EQ(run.metrics.num_aborted, res.aborted) << "seed=" << seed;
    }
    // The campaign is vacuous if no case ever had an offload in the
    // air; at these watermarks several seeds must.
    EXPECT_GT(offload_cases, 0u);
}

// ---------------------------------------------------------------------
// 2-node golden snapshot
// ---------------------------------------------------------------------

namespace {

constexpr double kRelTol = 0.05; // 5%

std::string
golden_path()
{
    return std::string(WS_GOLDEN_DIR) + "/lp_cluster_metrics.txt";
}

std::vector<std::pair<std::string, double>>
lp_snapshot()
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 300;
    ec.seed = 4242;
    ec.audit = true;
    ec.offload_highwater = 0.10;
    ec.offload_lowwater = 0.08;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_EQ(r.metrics.num_finished + r.metrics.num_unfinished, 300u);

    // The golden pin is also an identity check: a replay of the same
    // config must agree on the EXACT event count before we compare the
    // snapshot against its 5%-tolerance baseline.
    auto r1 = hs::run_experiment(ec);
    EXPECT_EQ(r.events_fired, r1.events_fired);
    EXPECT_EQ(r.metrics.num_finished, r1.metrics.num_finished);
    EXPECT_EQ(r.metrics.makespan, r1.metrics.makespan);

    const auto &m = r.metrics;
    return {
        {"num_finished", static_cast<double>(m.num_finished)},
        {"events_fired", static_cast<double>(r.events_fired)},
        {"ttft_mean", m.ttft.mean()},
        {"ttft_p99", m.ttft.p99()},
        {"tpot_mean", m.tpot.mean()},
        {"e2e_mean", m.e2e.mean()},
        {"slo_attainment", m.slo_attainment},
        {"dispatches", static_cast<double>(r.dispatches)},
    };
}

std::map<std::string, double>
load_golden(const std::string &path)
{
    std::ifstream in(path);
    std::map<std::string, double> golden;
    std::string key;
    double value;
    while (in >> key >> value)
        golden[key] = value;
    return golden;
}

} // namespace

TEST(LpGolden, TwoNodeRunMatchesSnapshot)
{
    auto snap = lp_snapshot();

    if (std::getenv("WS_UPDATE_GOLDEN")) {
        std::ofstream out(golden_path());
        ASSERT_TRUE(out) << "cannot write " << golden_path();
        out.precision(17);
        for (const auto &[key, value] : snap)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "golden file regenerated: " << golden_path();
    }

    auto golden = load_golden(golden_path());
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path()
        << " — regenerate with WS_UPDATE_GOLDEN=1";
    ASSERT_EQ(golden.size(), snap.size()) << "golden key set drifted";

    for (const auto &[key, value] : snap) {
        ASSERT_TRUE(golden.count(key)) << "golden misses key " << key;
        double want = golden[key];
        double tol = kRelTol * std::max(std::abs(want), 1e-9);
        EXPECT_NEAR(value, want, tol)
            << key << " drifted: got " << value << ", golden " << want
            << " (retune intentionally with WS_UPDATE_GOLDEN=1)";
    }
}
