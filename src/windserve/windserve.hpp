/**
 * @file
 * Umbrella header: the public API of the WindServe reproduction.
 *
 * Typical usage (see examples/quickstart.cpp):
 *
 *   auto scenario = windserve::harness::Scenario::opt13b_sharegpt();
 *   windserve::harness::ExperimentConfig cfg;
 *   cfg.scenario = scenario;
 *   cfg.system = windserve::harness::SystemKind::WindServe;
 *   cfg.per_gpu_rate = 4.0;
 *   auto result = windserve::harness::run_experiment(cfg);
 *   std::cout << windserve::metrics::summary_line(result.metrics);
 */
#pragma once

// simulation kernel
#include "simcore/event_pool.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/log.hpp"
#include "simcore/pump_profiler.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/stats.hpp"
#include "simcore/utilization.hpp"

// hardware substrate
#include "hw/gpu_spec.hpp"
#include "hw/topology.hpp"
#include "hw/transfer_engine.hpp"

// model cost layer
#include "model/cost_model.hpp"
#include "model/flops.hpp"
#include "model/model_spec.hpp"
#include "model/parallelism.hpp"

// KV cache management
#include "kvcache/backup_registry.hpp"
#include "kvcache/block_manager.hpp"
#include "kvcache/swap_pool.hpp"

// observability (structured trace recording + telemetry layer)
#include "obs/decision_journal.hpp"
#include "obs/metric_registry.hpp"
#include "obs/probe.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_recorder.hpp"

// runtime invariant auditing
#include "audit/sim_auditor.hpp"

// fault injection & recovery (chaos engine)
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

// replicated control plane (leader election, log replication, KV directory)
#include "ctrl/control_plane.hpp"
#include "ctrl/election.hpp"
#include "ctrl/kv_directory.hpp"
#include "ctrl/replicated_log.hpp"

// workloads
#include "workload/arrival.hpp"
#include "workload/dataset.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

// serving engine
#include "engine/batch.hpp"
#include "engine/execution.hpp"
#include "engine/instance.hpp"
#include "engine/local_scheduler.hpp"
#include "engine/serving_system.hpp"

// KV transfer and migration
#include "transfer/kv_transfer.hpp"
#include "transfer/migration.hpp"

// WindServe core
#include "core/cluster_system.hpp"
#include "core/coordinator.hpp"
#include "core/global_scheduler.hpp"
#include "core/pod.hpp"
#include "core/pod_balancer.hpp"
#include "core/profiler.hpp"
#include "core/windserve_system.hpp"

// baselines
#include "baselines/distserve_system.hpp"
#include "baselines/vllm_system.hpp"

// metrics
#include "metrics/collector.hpp"
#include "metrics/report.hpp"
#include "metrics/slo.hpp"

// experiment harness
#include "harness/configs.hpp"
#include "harness/experiment.hpp"
#include "harness/flags.hpp"
#include "harness/fuzz.hpp"
#include "harness/parallel.hpp"
#include "harness/sweep.hpp"
#include "harness/placement_search.hpp"
#include "harness/table.hpp"
