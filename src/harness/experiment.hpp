/**
 * @file
 * Single-experiment runner: build a serving system for a scenario,
 * replay a trace at a given per-GPU rate, and collect metrics.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "baselines/distserve_system.hpp"
#include "baselines/vllm_system.hpp"
#include "core/cluster_system.hpp"
#include "fault/fault_plan.hpp"
#include "harness/configs.hpp"
#include "metrics/collector.hpp"
#include "workload/trace.hpp"

namespace windserve::harness {

/** Which serving system to instantiate. */
enum class SystemKind {
    WindServe,
    DistServe,
    Vllm,
    WindServeNoSplit,  ///< ablation: no stream-based disaggregation
    WindServeNoResche, ///< ablation: no dynamic rescheduling
    WindServeNoDispatch, ///< extra ablation: no dynamic prefill dispatch
};

/** Display name of @p k ("WindServe", "vLLM", ...). */
const char *to_string(SystemKind k);

/** The SystemKind whose display name is @p name, in any case
 *  ("windserve", "vLLM", ...). Throws std::invalid_argument otherwise. */
SystemKind parse_system_kind(const std::string &name);

/** One experiment = (scenario, system, rate, trace size, seed). */
struct ExperimentConfig {
    Scenario scenario = Scenario::opt13b_sharegpt();
    SystemKind system = SystemKind::WindServe;
    /** Per-GPU request rate (the paper's linear scaling rule, §2.2). */
    double per_gpu_rate = 1.0;
    std::size_t num_requests = 2500;
    std::uint64_t seed = 42;
    double horizon = 7200.0;
    /** Optional dispatch-threshold override (Fig. 5 sweep). */
    std::optional<double> thrd;
    /** Stall-free migration on (off = blocking-migration ablation). */
    bool stall_free = true;
    /** Optional KV-transfer policy override (Overlapped by default for
     *  WindServe; Synchronous reproduces DistServe's blocking copy). */
    std::optional<transfer::TransferPolicy> transfer_policy;
    /** Proactive KV backups (off = backup ablation). */
    bool enable_backup = true;
    /**
     * Attach a per-run obs::TraceRecorder and export the Chrome-trace
     * JSON / lifecycle CSV into the result. Off by default: the traced
     * run's scheduling is identical, only the exports are added.
     */
    bool record_trace = false;
    /**
     * Attach a fail-fast audit::SimAuditor that checks simulation
     * invariants (KV conservation, lifecycle legality, link capacity,
     * end-of-run accounting) at every event. Violations throw
     * audit::InvariantViolation carrying the replayable seed. Off by
     * default: an audited run's results are identical to an unaudited
     * one.
     */
    bool audit = false;
    /**
     * Attach a fault::FaultInjector with this chaos schedule. Empty
     * (the default) runs fault-free; a config with horizon <= 0 takes
     * the experiment's horizon. The schedule is a pure function of the
     * config, so two runs with the same ExperimentConfig see identical
     * faults.
     */
    std::optional<fault::FaultConfig> faults;
    /**
     * Attach per-run obs::Telemetry and export its Prometheus text,
     * metrics CSV, decision-journal CSV/JSON and self-profiler table
     * into the result. Empty (the default) runs untelemetered; an
     * instrumented run's scheduling and results are identical.
     */
    std::optional<obs::TelemetryConfig> telemetry;
    /** KV capacity override for every instance (tokens; 0 = derived).
     *  Lets tests and the fuzzer force memory pressure. */
    std::size_t kv_capacity_tokens_override = 0;
    /** Host DRAM budget per swap pool. */
    double host_memory_bytes = 256e9;
    /** Swap to host on KV exhaustion (park-in-queue when disabled). */
    bool swap_enabled = true;
    /**
     * Cluster shape. The scenario describes ONE pod; the experiment
     * replicates it over `num_nodes * pods_per_node` pods and scales
     * the arrival rate by the same factor (the paper's linear rule).
     * The WindServe family runs as a ClusterServeSystem of that many
     * pods (the 1/1 default is the paper's single testbed); DistServe
     * replicates PD pairs; vLLM multiplies its engine count.
     */
    std::size_t num_nodes = 1;
    std::size_t pods_per_node = 1;
    /** Cluster decode-offload watermark overrides (ClusterConfig
     *  defaults when empty). Benches and tests lower these to make the
     *  cross-pod offload path fire under moderate load. */
    std::optional<double> offload_highwater;
    std::optional<double> offload_lowwater;
    /** run_experiment() forwards this to
     *  engine::RunOptions::intra_threads, which must be 1. Kept so
     *  existing callers that set it explicitly still compile. */
    std::size_t intra_threads = 1;
    /**
     * Scheduler replicas for the replicated control plane. 1 (the
     * default) keeps the historical immortal-coordinator path,
     * byte-identical to pre-control-plane runs; >= 2 routes every
     * externally visible decision through the Raft-shaped log (the
     * WindServe family only — baselines ignore it).
     */
    std::size_t ctrl_replicas = 1;
    /** Per-node-pair fabric overrides (bench_scale's oversubscribed
     *  spine). Empty keeps the uniform NIC fabric. */
    std::vector<hw::InterNodeLink> inter_node_links;
};

/** Outcome of one experiment. */
struct ExperimentResult {
    std::string system_name;
    double per_gpu_rate = 0.0;
    metrics::RunMetrics metrics;
    /** Events the run fired — thread-count invariant by the engine's
     *  contract. */
    std::uint64_t events_fired = 0;
    // system-internal counters
    std::uint64_t dispatches = 0;
    std::uint64_t reschedules = 0;
    std::uint64_t migrations_completed = 0;
    std::uint64_t backups = 0;
    std::uint64_t decode_swap_outs = 0;
    // trace exports (record_trace only; empty otherwise)
    std::string trace_json;        ///< Chrome trace-event document
    std::string trace_request_csv; ///< per-request lifecycle table
    std::size_t trace_events = 0;  ///< events recorded
    // audit outcome (audit only; zero otherwise)
    std::uint64_t audit_events = 0;     ///< invariant checks performed
    std::uint64_t audit_violations = 0; ///< violations recorded
    // telemetry exports (telemetry only; empty otherwise). All are
    // deterministic byte-for-byte at any --jobs N.
    std::string metrics_prometheus; ///< Prometheus exposition text
    std::string metrics_csv;        ///< sampled time series, long form
    std::string journal_csv;        ///< scheduler decision journal
    std::string journal_json;       ///< same journal as JSON
    std::string profile_table;      ///< self-profiler (counts only)
    std::size_t metric_samples = 0; ///< sample ticks taken
    std::size_t metric_families = 0;
    std::size_t journal_decisions = 0;
    double profiled_attribution = 0.0; ///< fraction of events with a
                                       ///< named source
};

/** Build the serving system an ExperimentConfig describes. */
std::unique_ptr<engine::ServingSystem>
make_system(const ExperimentConfig &cfg);

/** Build the workload trace an ExperimentConfig describes. */
std::vector<workload::Request> make_trace(const ExperimentConfig &cfg);

/** The engine::RunOptions an ExperimentConfig describes. An audited
 *  config gets an auditor without a repro line: only fuzz cases, which
 *  fuzz_runner can replay, carry one (see run_fuzz_case). */
engine::RunOptions make_run_options(const ExperimentConfig &cfg);

/** Run one experiment end to end. */
ExperimentResult run_experiment(const ExperimentConfig &cfg);

} // namespace windserve::harness
