/**
 * @file
 * Export fingerprints: pins every observable export of three small,
 * fully instrumented runs to an FNV-64 hash recorded from the code as
 * it stood before the observers shared one probe stream.
 *
 * The jobs-1/4 identity tests elsewhere prove a run agrees with
 * itself; these prove a refactor of the observation layer (or of
 * anything that feeds it) left every byte of every export where it
 * was. Covered per run: the Chrome trace JSON, the per-request CSV,
 * the decision journal (CSV and JSON), the Prometheus text and the
 * sampled metric CSV, plus the auditor's event total.
 *
 * A deliberate export change re-records the table below: the failure
 * message prints each run's fresh hashes in table order.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "windserve/windserve.hpp"

using namespace windserve;
namespace hs = harness;

namespace {

std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Fingerprint {
    std::uint64_t trace_json;
    std::uint64_t request_csv;
    std::uint64_t journal_csv;
    std::uint64_t journal_json;
    std::uint64_t prometheus;
    std::uint64_t metrics_csv;
    std::uint64_t audit_events;
};

Fingerprint
fingerprint_of(const hs::ExperimentResult &r)
{
    return Fingerprint{fnv64(r.trace_json),   fnv64(r.trace_request_csv),
                       fnv64(r.journal_csv),  fnv64(r.journal_json),
                       fnv64(r.metrics_prometheus), fnv64(r.metrics_csv),
                       r.audit_events};
}

std::string
render(const Fingerprint &f)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                  "0x%016llxULL, 0x%016llxULL, 0x%016llxULL, %lluULL}",
                  static_cast<unsigned long long>(f.trace_json),
                  static_cast<unsigned long long>(f.request_csv),
                  static_cast<unsigned long long>(f.journal_csv),
                  static_cast<unsigned long long>(f.journal_json),
                  static_cast<unsigned long long>(f.prometheus),
                  static_cast<unsigned long long>(f.metrics_csv),
                  static_cast<unsigned long long>(f.audit_events));
    return buf;
}

void
expect_fingerprint(const hs::ExperimentConfig &cfg, const Fingerprint &want)
{
    hs::ExperimentResult r = hs::run_experiment(cfg);
    ASSERT_EQ(r.audit_violations, 0u);
    ASSERT_FALSE(r.trace_json.empty());
    ASSERT_FALSE(r.metrics_prometheus.empty());
    const Fingerprint got = fingerprint_of(r);
    const std::string fresh = "fresh: " + render(got);
    EXPECT_EQ(got.trace_json, want.trace_json) << fresh;
    EXPECT_EQ(got.request_csv, want.request_csv) << fresh;
    EXPECT_EQ(got.journal_csv, want.journal_csv) << fresh;
    EXPECT_EQ(got.journal_json, want.journal_json) << fresh;
    EXPECT_EQ(got.prometheus, want.prometheus) << fresh;
    EXPECT_EQ(got.metrics_csv, want.metrics_csv) << fresh;
    EXPECT_EQ(got.audit_events, want.audit_events) << fresh;
}

// Every observer on: trace, audit and telemetry (journal included).
hs::ExperimentConfig
observed(hs::SystemKind kind)
{
    hs::ExperimentConfig cfg;
    cfg.scenario = hs::Scenario::opt13b_sharegpt();
    cfg.system = kind;
    cfg.per_gpu_rate = 2.0;
    cfg.num_requests = 60;
    cfg.seed = 11;
    cfg.horizon = 900.0;
    // Memory pressure: swaps, migrations, backups and parking fire.
    cfg.kv_capacity_tokens_override = 4096;
    cfg.record_trace = true;
    cfg.audit = true;
    cfg.telemetry = obs::TelemetryConfig{};
    cfg.telemetry->sample_every = 2.0;
    return cfg;
}

} // namespace

TEST(ExportFingerprint, WindServeChaosClusterWithReplicatedControl)
{
    // 2 nodes x 2 pods, 3 scheduler replicas, instance/node/link/
    // straggler chaos plus leader crashes and control partitions.
    hs::ExperimentConfig cfg = observed(hs::SystemKind::WindServe);
    cfg.num_requests = 200;
    cfg.per_gpu_rate = 5.0;
    cfg.kv_capacity_tokens_override = 8192;
    cfg.thrd = 0.05; // low dispatch threshold: Algorithm 1 fires
    cfg.horizon = 150.0;
    cfg.num_nodes = 2;
    cfg.pods_per_node = 2;
    cfg.ctrl_replicas = 3;
    cfg.offload_highwater = 0.3;
    cfg.offload_lowwater = 0.2;
    fault::FaultConfig fc;
    fc.seed = 5;
    fc.warmup = 2.0;
    fc.crash_mtbf = 40.0;
    fc.mean_repair = 4.0;
    fc.link_mtbf = 25.0;
    fc.mean_outage = 1.5;
    fc.degrade_factor = 0.2;
    fc.straggler_mtbf = 30.0;
    fc.mean_straggler = 6.0;
    fc.straggler_slowdown = 2.5;
    fc.node_mtbf = 60.0;
    fc.mean_node_repair = 5.0;
    fc.leader_mtbf = 8.0;
    fc.mean_leader_repair = 3.0;
    fc.partition_mtbf = 15.0;
    fc.mean_partition = 1.0;
    fc.recovery.max_attempts = 2;
    cfg.faults = fc;
    expect_fingerprint(cfg, {0xa8e7048ac70e8bb4ULL, 0xe3e9608c5461856aULL,
                             0xf073f0e406e62fa1ULL, 0x935ac9bf65fcd28cULL,
                             0x26659ad561a3a7a1ULL, 0x8a5661da497049f0ULL,
                             43896ULL});
}

TEST(ExportFingerprint, DistServeTwoReplicas)
{
    hs::ExperimentConfig cfg = observed(hs::SystemKind::DistServe);
    cfg.pods_per_node = 2;
    expect_fingerprint(cfg, {0x2aa09880fc82f37aULL, 0xcaa94f0c290cdec6ULL,
                             0x7494f3d274852802ULL, 0x6865f15b957a60b4ULL,
                             0x0a428d5600bfe620ULL, 0x9668a1c1e391bbc4ULL,
                             12552ULL});
}

TEST(ExportFingerprint, VllmTwoEngines)
{
    // One pod's GPU budget at the scenario's parallelism: 2 engines.
    hs::ExperimentConfig cfg = observed(hs::SystemKind::Vllm);
    expect_fingerprint(cfg, {0x034cbc49adcccd50ULL, 0x504785749f2a641aULL,
                             0x7494f3d274852802ULL, 0x6865f15b957a60b4ULL,
                             0x52532039fbcb7789ULL, 0xbe523bf97332efcdULL,
                             12349ULL});
}
