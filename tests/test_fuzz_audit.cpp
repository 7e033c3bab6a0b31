/**
 * @file
 * Property-based fuzzing of all three serving systems under invariant
 * audit (see harness/fuzz.hpp). The campaign here is the CI-budget
 * version of examples/fuzz_runner: 70 randomized cases per system (210
 * total), every one replayable from the seed a failure prints.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "harness/flags.hpp"
#include "harness/fuzz.hpp"
#include "harness/parallel.hpp"

namespace hs = windserve::harness;

namespace {

std::vector<std::string>
split(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string tok; in >> tok;)
        out.push_back(tok);
    return out;
}

} // namespace

// The headline property: no randomized workload/config drives any
// system into an invariant violation. A failure throws
// audit::InvariantViolation whose message carries the repro line
// (--repro-seed=S --repro-config=NAME) that examples/fuzz_runner
// replays directly.
TEST(FuzzAudit, RandomizedCampaignHoldsAllInvariants)
{
    hs::FuzzOptions opt;
    opt.iterations = 70; // x3 systems = 210 audited cases
    opt.base_seed = 1;
    opt.jobs = hs::default_jobs();
    hs::FuzzSummary sum = hs::run_fuzz(opt);
    EXPECT_EQ(sum.results.size(), 210u);
    EXPECT_EQ(sum.total_violations, 0u);
    EXPECT_GT(sum.total_events, 100000u); // the audit actually ran
    // Every case simulated a real workload.
    for (const auto &r : sum.results) {
        EXPECT_GE(r.num_requests, 40u) << r.system_name << " seed " << r.seed;
        EXPECT_GT(r.audit_events, 0u) << r.system_name << " seed " << r.seed;
        EXPECT_GT(r.generated_tokens, 0u)
            << r.system_name << " seed " << r.seed;
    }
}

// Replays are exact: the same seed yields bit-identical per-request
// outcomes (the checksum folds id, token counts, timestamps, state).
TEST(FuzzAudit, SameSeedSameChecksum)
{
    for (hs::SystemKind k :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm}) {
        hs::FuzzResult a = hs::run_fuzz_case(77, k);
        hs::FuzzResult b = hs::run_fuzz_case(77, k);
        EXPECT_EQ(a.checksum, b.checksum) << a.system_name;
        EXPECT_EQ(a.generated_tokens, b.generated_tokens) << a.system_name;
        EXPECT_EQ(a.audit_events, b.audit_events) << a.system_name;
    }
}

// Campaign results do not depend on worker-thread count: slot-ordered
// results from a threaded run match a serial run exactly.
TEST(FuzzAudit, ThreadCountDoesNotChangeResults)
{
    hs::FuzzOptions opt;
    opt.iterations = 6;
    opt.base_seed = 500;
    opt.jobs = 1;
    hs::FuzzSummary serial = hs::run_fuzz(opt);
    opt.jobs = 4;
    hs::FuzzSummary threaded = hs::run_fuzz(opt);
    ASSERT_EQ(serial.results.size(), threaded.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].checksum, threaded.results[i].checksum);
        EXPECT_EQ(serial.results[i].seed, threaded.results[i].seed);
        EXPECT_EQ(serial.results[i].system_name,
                  threaded.results[i].system_name);
    }
    EXPECT_EQ(serial.total_events, threaded.total_events);
}

// Config derivation is a pure function of (seed, system) and actually
// explores the space (different seeds produce different workloads).
TEST(FuzzAudit, ConfigDerivationIsPureAndVaried)
{
    auto a = hs::make_fuzz_config(9, hs::SystemKind::WindServe);
    auto b = hs::make_fuzz_config(9, hs::SystemKind::WindServe);
    EXPECT_EQ(a.num_requests, b.num_requests);
    EXPECT_EQ(a.per_gpu_rate, b.per_gpu_rate);
    EXPECT_EQ(a.kv_capacity_tokens_override, b.kv_capacity_tokens_override);
    EXPECT_TRUE(a.audit);

    bool varied = false;
    auto first = hs::make_fuzz_config(1, hs::SystemKind::WindServe);
    for (std::uint64_t s = 2; s <= 12 && !varied; ++s) {
        auto c = hs::make_fuzz_config(s, hs::SystemKind::WindServe);
        varied = c.num_requests != first.num_requests ||
                 c.per_gpu_rate != first.per_gpu_rate;
    }
    EXPECT_TRUE(varied);
}

// Multi-node campaigns: the same randomized configs replayed on 2- and
// 4-node clusters (sharded WindServe pods, replicated baselines) hold
// every invariant, fault-free and under chaos. The chaos axis adds
// node crashes and NIC outages on top of the single-node fault classes.
TEST(FuzzAudit, MultiNodeCampaignHoldsAllInvariants)
{
    for (std::size_t nodes : {2u, 4u}) {
        hs::FuzzOptions opt;
        opt.iterations = 12; // x3 systems x2 cluster sizes
        opt.base_seed = 1;
        opt.jobs = hs::default_jobs();
        opt.nodes = nodes;
        hs::FuzzSummary sum = hs::run_fuzz(opt);
        EXPECT_EQ(sum.results.size(), 36u) << nodes;
        EXPECT_EQ(sum.total_violations, 0u) << nodes;
        EXPECT_GT(sum.total_events, 100000u) << nodes;
        for (const auto &r : sum.results)
            EXPECT_GT(r.generated_tokens, 0u)
                << r.system_name << " seed " << r.seed << " " << nodes
                << " nodes";
    }
}

TEST(FuzzAudit, MultiNodeChaosCampaignHoldsAllInvariants)
{
    hs::FuzzOptions opt;
    opt.iterations = 12;
    opt.base_seed = 1;
    opt.jobs = hs::default_jobs();
    opt.nodes = 2;
    opt.chaos = true;
    hs::FuzzSummary sum = hs::run_fuzz(opt);
    EXPECT_EQ(sum.results.size(), 36u);
    EXPECT_EQ(sum.total_violations, 0u);
    EXPECT_GT(sum.total_events, 100000u);
}

// The node axis is orthogonal: seed replay on a cluster is exact, and
// nodes=1 is byte-identical to the historical single-node case (the
// cluster draws come after every single-node draw).
TEST(FuzzAudit, MultiNodeSeedReplayIsExact)
{
    for (hs::SystemKind k :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm}) {
        hs::FuzzResult a = hs::run_fuzz_case(77, k, {true, 2});
        hs::FuzzResult b = hs::run_fuzz_case(77, k, {true, 2});
        EXPECT_EQ(a.checksum, b.checksum) << a.system_name;
        EXPECT_EQ(a.audit_events, b.audit_events) << a.system_name;
    }
    // Older repro lines could carry an intra-run thread-count flag, an
    // axis that never drew from the case RNG. The same line without the
    // flag replays the recorded outcome: these checksums were recorded
    // from `--repro-seed=77 --repro-config=windserve --chaos --nodes=2`
    // at 1 and at 8 intra-run threads (identical), the second line with
    // `--replicas=3 --ctrl-chaos` appended.
    EXPECT_EQ(
        hs::run_fuzz_case(77, hs::SystemKind::WindServe, {true, 2}).checksum,
        0xb0f152066a9bd191ULL);
    EXPECT_EQ(hs::run_fuzz_case(77, hs::SystemKind::WindServe,
                                {true, 2, 3, true})
                  .checksum,
              0x95a551ec30244f81ULL);
    // The single-node cases, fault-free and under chaos, recorded when
    // a one-pod deployment still had its own assembly path: the
    // one-pod cluster must keep reproducing them.
    const struct {
        bool chaos;
        std::uint64_t checksum;
        std::uint64_t events;
    } single[] = {{false, 0xc8e9f0029c2ea74cULL, 2789},
                  {true, 0x33d66a8243f092ULL, 2965}};
    for (const auto &s : single) {
        auto cfg = hs::make_fuzz_config(77, hs::SystemKind::WindServe,
                                        {s.chaos});
        EXPECT_EQ(hs::run_fuzz_case(cfg, {s.chaos}).checksum, s.checksum)
            << s.chaos;
        EXPECT_EQ(hs::run_experiment(cfg).events_fired, s.events)
            << s.chaos;
    }
}

TEST(FuzzAudit, NodeAxisDoesNotPerturbSingleNodeConfigs)
{
    for (bool chaos : {false, true}) {
        auto legacy = hs::make_fuzz_config(9, hs::SystemKind::WindServe,
                                           {chaos});
        auto one =
            hs::make_fuzz_config(9, hs::SystemKind::WindServe, {chaos, 1});
        EXPECT_EQ(legacy.num_requests, one.num_requests);
        EXPECT_EQ(legacy.per_gpu_rate, one.per_gpu_rate);
        EXPECT_EQ(legacy.kv_capacity_tokens_override,
                  one.kv_capacity_tokens_override);
        EXPECT_EQ(legacy.num_nodes, one.num_nodes);
        if (chaos) {
            ASSERT_TRUE(legacy.faults && one.faults);
            EXPECT_EQ(legacy.faults->crash_mtbf, one.faults->crash_mtbf);
            EXPECT_EQ(legacy.faults->node_mtbf, one.faults->node_mtbf);
            EXPECT_EQ(one.faults->node_mtbf, 0.0); // single node: none
        }
        // The multi-node variant keeps every base draw too.
        auto multi =
            hs::make_fuzz_config(9, hs::SystemKind::WindServe, {chaos, 2});
        EXPECT_EQ(legacy.num_requests, multi.num_requests);
        EXPECT_EQ(legacy.per_gpu_rate, multi.per_gpu_rate);
        if (chaos)
            EXPECT_EQ(legacy.faults->crash_mtbf, multi.faults->crash_mtbf);
        EXPECT_EQ(multi.num_nodes, 2u);
    }
}

// Inter-node link outages: a 2-node chaos case with the link class
// forced on runs clean and its NIC outages are replayable.
TEST(FuzzAudit, InterNodeLinkOutagesHoldInvariants)
{
    const hs::FuzzAxes axes{true, 2};
    auto cfg = hs::make_fuzz_config(13, hs::SystemKind::WindServe, axes);
    ASSERT_TRUE(cfg.faults);
    cfg.faults->link_mtbf = 15.0; // force frequent outages on all links,
    cfg.faults->mean_outage = 3.0; // NICs included (generic link class)
    cfg.faults->degrade_factor = 0.0;
    hs::FuzzResult a = hs::run_fuzz_case(cfg, axes);
    hs::FuzzResult b = hs::run_fuzz_case(cfg, axes);
    EXPECT_EQ(a.audit_violations, 0u);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_GT(a.audit_events, 0u);
}

// The axes render into the repro line from the same declaration
// fuzz_runner parses, so every combination parses back to the same
// axes and hence the same config.
TEST(FuzzAudit, ReproFlagsRoundTripEveryAxisCombination)
{
    for (unsigned mask = 0; mask < 16; ++mask) {
        const hs::FuzzAxes axes{(mask & 1) != 0, mask & 2 ? 2u : 1u,
                                mask & 4 ? 3u : 1u, (mask & 8) != 0};
        hs::FuzzAxes back;
        hs::FlagTable t;
        hs::declare_fuzz_axes(t, back);
        t.parse(split(hs::fuzz_axes_flags(axes)));
        EXPECT_EQ(back.chaos, axes.chaos) << mask;
        EXPECT_EQ(back.nodes, axes.nodes) << mask;
        EXPECT_EQ(back.replicas, axes.replicas) << mask;
        EXPECT_EQ(back.ctrl_chaos, axes.ctrl_chaos) << mask;

        auto a = hs::make_fuzz_config(21, hs::SystemKind::WindServe, axes);
        auto b = hs::make_fuzz_config(21, hs::SystemKind::WindServe, back);
        EXPECT_EQ(a.num_requests, b.num_requests) << mask;
        EXPECT_EQ(a.num_nodes, b.num_nodes) << mask;
        EXPECT_EQ(a.ctrl_replicas, b.ctrl_replicas) << mask;
        ASSERT_EQ(a.faults.has_value(), b.faults.has_value()) << mask;
        if (a.faults) {
            EXPECT_EQ(a.faults->crash_mtbf, b.faults->crash_mtbf) << mask;
            EXPECT_EQ(a.faults->node_mtbf, b.faults->node_mtbf) << mask;
            EXPECT_EQ(a.faults->leader_mtbf, b.faults->leader_mtbf) << mask;
        }
    }
    // Historical repro lines keep their flag order; a control-chaos-only
    // schedule is not --chaos.
    EXPECT_EQ(hs::fuzz_axes_flags({}), "");
    EXPECT_EQ(hs::fuzz_axes_flags({true, 2, 3, true}),
              " --chaos --nodes=2 --replicas=3 --ctrl-chaos");
    EXPECT_EQ(hs::fuzz_axes_flags({false, 1, 3, true}),
              " --replicas=3 --ctrl-chaos");
}

// End to end: the repro line a chaos case and a control-chaos-only case
// carry, parsed the way fuzz_runner parses it, replays the checksum
// recorded from fuzz_runner before the flag table existed.
TEST(FuzzAudit, ReproLineReplaysRecordedChecksums)
{
    const struct {
        std::uint64_t seed;
        hs::FuzzAxes axes;
        std::uint64_t checksum;
    } cases[] = {{77, {true, 2}, 0xb0f152066a9bd191ULL},
                 {11, {false, 1, 3, true}, 0x163092cdba0310a4ULL}};
    for (const auto &c : cases) {
        std::string line =
            hs::run_fuzz_case(c.seed, hs::SystemKind::WindServe, c.axes)
                .repro_line;
        std::uint64_t seed = 0;
        std::string config;
        hs::FuzzAxes axes;
        hs::FlagTable t;
        t.add("--repro-seed", seed, "seed");
        t.add("--repro-config", config, "system");
        hs::declare_fuzz_axes(t, axes);
        t.parse(split(line));
        EXPECT_EQ(hs::run_fuzz_case(seed, hs::parse_system_kind(config), axes)
                      .checksum,
                  c.checksum)
            << line;
    }
}

TEST(FuzzAudit, ParseSystemKindRoundTrips)
{
    using K = hs::SystemKind;
    for (K k : {K::WindServe, K::DistServe, K::Vllm, K::WindServeNoSplit,
                K::WindServeNoResche, K::WindServeNoDispatch})
        EXPECT_EQ(hs::parse_system_kind(hs::to_string(k)), k);
    EXPECT_EQ(hs::parse_system_kind("vllm"), K::Vllm);
    EXPECT_THROW(hs::parse_system_kind("sglang"), std::invalid_argument);
}
