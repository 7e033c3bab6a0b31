/**
 * @file
 * Cross-pod timing of a multi-pod cluster on its one event queue: the
 * lookahead floor derived from topology latencies, the decode offload
 * decided exactly one lookahead after its prefill completion, a chaos
 * campaign that kills pods mid-offload and replays the same seed, a
 * 2-node golden snapshot, and the rejection of multi-threaded run
 * requests.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_system.hpp"
#include "harness/fuzz.hpp"
#include "hw/topology.hpp"
#include "obs/trace_recorder.hpp"

namespace hs = windserve::harness;
using windserve::core::cluster_lookahead_floor;

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
// Cross-pod control latency on one event queue
// ---------------------------------------------------------------------

namespace {

/** tid -> track name, read back from the trace's thread_name rows. */
std::map<std::uint32_t, std::string>
track_names(const windserve::obs::TraceRecorder &rec)
{
    static const std::regex row(
        R"re(\{"ph":"M","name":"thread_name","pid":\d+,"tid":(\d+),"args":\{"name":"([^"]*)"\}\})re");
    std::map<std::uint32_t, std::string> names;
    const std::string json = rec.chrome_json();
    for (std::sregex_iterator it(json.begin(), json.end(), row), end;
         it != end; ++it)
        names[static_cast<std::uint32_t>(std::stoul((*it)[1]))] =
            (*it)[2];
    return names;
}

double
bytes_arg(const windserve::obs::TraceEvent &e)
{
    for (const auto &a : e.args)
        if (a.key == "bytes")
            return std::strtod(a.value.c_str(), nullptr);
    return -1.0;
}

} // namespace

// A prefill completion parked for a cross-pod offload is decided
// exactly lookahead() after it, against every pod's state at that
// instant: an accepted offload submits its NIC copy then, a refused one
// starts its pod-local prefill->decode copy then. Both are read back
// from the trace. A NIC span starts at its submit time (the link is
// processor-sharing); a p2d span does too whenever the FIFO link was
// idle, i.e. it starts after the previous span on its track ended.
TEST(CrossPodLatency, ParkedCompletionIsDecidedExactlyOneLookaheadLater)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.per_gpu_rate = 2.5;
    ec.num_requests = 300;
    ec.seed = 4242;
    ec.offload_highwater = 0.10;
    ec.offload_lowwater = 0.08;
    // A tiny KV pool keeps both pods near the watermarks, so parked
    // completions are both accepted and refused.
    ec.kv_capacity_tokens_override = 2560;
    auto system = hs::make_system(ec);
    auto *cs =
        dynamic_cast<windserve::core::ClusterServeSystem *>(system.get());
    ASSERT_NE(cs, nullptr);
    ASSERT_EQ(cs->num_pods(), 2u);
    windserve::engine::RunOptions opts;
    opts.slo = ec.scenario.slo;
    opts.horizon = ec.horizon;
    opts.tracing = true;
    auto run = system->run(hs::make_trace(ec), opts);

    const double lookahead = cs->lookahead();
    ASSERT_GT(lookahead, 0.0);
    const windserve::transfer::KvTransferManager &xfer =
        cs->pod(0).transfer();
    ASSERT_EQ(xfer.config().policy,
              windserve::transfer::TransferPolicy::Overlapped);
    // Prefill completion times, keyed by the bytes each copy moves: the
    // full prompt KV over the NIC, the overlap tail over p2d.
    std::multimap<double, double> nic_copy, p2d_copy;
    for (const auto &r : run.requests) {
        if (r.first_token_time == windserve::workload::kNoTime)
            continue;
        double bytes =
            xfer.bytes_for_tokens(static_cast<double>(r.prompt_tokens));
        nic_copy.emplace(bytes, r.first_token_time);
        bytes *= xfer.config().overlap_tail_fraction;
        p2d_copy.emplace(bytes, r.first_token_time);
    }
    auto started_at = [](const std::multimap<double, double> &copies,
                         double bytes, double ts, double delay) {
        auto [lo, hi] = copies.equal_range(bytes);
        for (auto it = lo; it != hi; ++it)
            if (it->second + delay == ts)
                return true;
        return false;
    };

    const auto names = track_names(*cs->trace());
    std::map<std::uint32_t, double> track_free; // p2d: last span end
    std::uint64_t accepted = 0, refused = 0, idle_p2d = 0;
    for (const auto &e : cs->trace()->events()) {
        if (e.phase != 'X' || e.name != "xfer" || !names.count(e.tid))
            continue;
        const std::string &track = names.at(e.tid);
        const double bytes = bytes_arg(e);
        if (track.starts_with("nic/")) {
            ++accepted;
            EXPECT_TRUE(started_at(nic_copy, bytes, e.ts, lookahead))
                << track << " copy of " << bytes << " B submitted at "
                << e.ts << " is not one lookahead after a prefill";
            continue;
        }
        if (!track.ends_with("kv-p2d"))
            continue;
        auto prev = track_free.find(e.tid);
        const bool idle = prev == track_free.end() ||
                          e.ts > prev->second + 1e-9;
        track_free[e.tid] = e.ts + e.dur;
        if (!idle)
            continue; // queued behind the previous copy
        ++idle_p2d;
        if (started_at(p2d_copy, bytes, e.ts, lookahead)) {
            ++refused;
            continue;
        }
        EXPECT_TRUE(started_at(p2d_copy, bytes, e.ts, 0.0))
            << track << " copy of " << bytes << " B started at " << e.ts
            << ": neither at a prefill completion nor one lookahead "
               "after one";
    }
    EXPECT_EQ(accepted, cs->cross_offloads());
    // Non-vacuous: both outcomes of a parked completion occurred.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(idle_p2d, refused);
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
