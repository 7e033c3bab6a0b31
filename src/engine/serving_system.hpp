/**
 * @file
 * Common interface of the serving systems under evaluation
 * (WindServe, DistServe, co-located vLLM).
 *
 * A system owns its Simulator, instances and interconnect channels,
 * replays a workload trace to completion, and hands the full outcome
 * back as one immutable RunResult value. Nothing about a finished run
 * is read through the system object afterwards, so a result can be
 * moved across threads (harness/parallel.hpp) without touching the
 * world that produced it.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/sim_auditor.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/collector.hpp"
#include "obs/telemetry.hpp"
#include "workload/request.hpp"

namespace windserve::obs {
class Probe;
class TraceRecorder;
}
namespace windserve::sim {
class Simulator;
}
namespace windserve::fault {
class FaultInjector;
}

namespace windserve::engine {

/**
 * Complete outcome of one serving-system run: the per-request results,
 * the aggregated metrics, and the GPU footprint used for per-GPU rate
 * normalisation. A plain value object — copyable, movable, and safe to
 * hand to another thread.
 */
struct RunResult {
    std::vector<workload::Request> requests;
    metrics::RunMetrics metrics;
    std::size_t num_gpus = 0;
};

/**
 * Everything that shapes one run() call: the SLO the metrics are
 * collected against, the horizon, and the optional per-run attachments
 * (trace recorder, invariant auditor, chaos engine, telemetry). Each
 * attachment is created, wired, and cross-linked by run() itself, in a
 * fixed order, so a configured run is a pure function of (RunOptions,
 * trace, seed). The recorder, the auditor and the telemetry's decision
 * journal are subscribers of one obs::Probe the components report to.
 *
 * An attachment left disabled keeps the run byte-identical to a bare
 * one — tracing, auditing, and an empty fault schedule are all free
 * when off.
 */
struct RunOptions {
    /** SLO targets the collected metrics are scored against. */
    metrics::SloSpec slo{};
    /** Simulated-seconds budget for the replay. */
    double horizon = 7200.0;
    /** Attach a per-run obs::TraceRecorder (reachable via trace()). */
    bool tracing = false;
    /** Attach a fail-fast audit::SimAuditor with this config. */
    std::optional<audit::AuditConfig> audit{};
    /** Attach a fault::FaultInjector with this chaos schedule. A config
     *  with horizon <= 0 inherits the run's horizon. */
    std::optional<fault::FaultConfig> faults{};
    /** Attach per-run obs::Telemetry (metric sampling, scheduler
     *  decision journal, event-pump self-profiler). */
    std::optional<obs::TelemetryConfig> telemetry{};
    /** Must be 1: a replay runs on the calling thread (run() throws
     *  std::invalid_argument otherwise). Kept so existing callers that
     *  set it explicitly still compile. */
    std::size_t intra_threads = 1;
};

/**
 * The per-run attachments a system wires its components into. Each
 * pointer is nullptr unless run() created it for this call.
 */
struct Attachments {
    obs::Telemetry *telemetry = nullptr;
    /** The probe every instrumented component reports to: created with
     *  the run's first trace, audit or journal subscriber. */
    obs::Probe *probe = nullptr;
    fault::FaultInjector *faults = nullptr;
};

/** Abstract serving system driven by the experiment harness. */
class ServingSystem
{
  public:
    virtual ~ServingSystem();

    /** GPUs this deployment occupies (for per-GPU rate normalisation). */
    virtual std::size_t num_gpus() const = 0;

    /** The simulation kernel this deployment runs on: one event queue
     *  for every component, pods of a cluster included. */
    virtual sim::Simulator &simulator() = 0;

    /** Events the run has fired: simulator().events_fired(). */
    std::uint64_t total_events_fired();

    /** The run's probe stream, or nullptr when nothing subscribes. */
    obs::Probe *probe() { return probe_.get(); }
    const obs::Probe *probe() const { return probe_.get(); }

    /** The attached recorder, or nullptr when tracing is off. */
    obs::TraceRecorder *trace() { return trace_.get(); }
    const obs::TraceRecorder *trace() const { return trace_.get(); }

    /** The attached auditor, or nullptr when auditing is off. */
    audit::SimAuditor *audit() { return audit_.get(); }
    const audit::SimAuditor *audit() const { return audit_.get(); }

    /** The attached injector, or nullptr when faults are off. */
    fault::FaultInjector *faults() { return faults_.get(); }
    const fault::FaultInjector *faults() const { return faults_.get(); }

    /** The attached telemetry, or nullptr when telemetry is off. */
    obs::Telemetry *telemetry() { return telemetry_.get(); }
    const obs::Telemetry *telemetry() const { return telemetry_.get(); }

    /**
     * Replay @p trace (sorted by arrival) until every request finishes
     * or the horizon elapses, then collect metrics against the SLO.
     * Attachments requested in @p opts that the system does not hold
     * yet are created, handed to wire() in one call, cross-linked, and
     * armed — telemetry before faults, so the self-profiler wraps every
     * event the fault plan schedules. Unfinished requests remain in
     * their last state and count against SLO attainment.
     *
     * One-shot: a system instance models a single deployment lifetime;
     * the per-request results are moved into the returned value.
     */
    RunResult run(const std::vector<workload::Request> &trace,
                  const RunOptions &opts);

    /** Convenience overload of run() for bare runs (no attachments). */
    RunResult run(const std::vector<workload::Request> &trace,
                  const metrics::SloSpec &slo = {},
                  double horizon = 7200.0);

  protected:
    // Out-of-line so std::unique_ptr<TraceRecorder> (and <Probe>) never
    // need the complete types in derived translation units.
    ServingSystem();

    /** Replay the trace on the simulation kernel (system-specific). */
    virtual void replay(const std::vector<workload::Request> &trace,
                        double horizon) = 0;

    /** Fill instance-level utilization/counters into @p m. */
    virtual void fill_system_metrics(metrics::RunMetrics &m) = 0;

    /** Surrender ownership of the per-request results after replay. */
    virtual std::vector<workload::Request> take_requests() = 0;

    /**
     * Point the system's components at the run's attachments, in the
     * fixed order telemetry (register instruments), probe (one hand-off
     * per component), faults (register fault targets and recovery
     * hooks). Called by run() with the attachments it just created,
     * before any of them is armed and before replay.
     */
    virtual void wire(const Attachments &a) = 0;

  private:
    /** Point the attachments at each other: the injector reports into
     *  the probe and the telemetry's fault-counter instruments
     *  (registered when either side is in @p fresh); the auditor admits
     *  the crash-recovery lifecycle edges once faults are expected. */
    void link_attachments(const Attachments &fresh);

    // The probe outlives its subscribers (declared first, destroyed
    // last).
    std::unique_ptr<obs::Probe> probe_;
    std::unique_ptr<obs::Telemetry> telemetry_;
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<audit::SimAuditor> audit_;
    std::unique_ptr<fault::FaultInjector> faults_;
};

} // namespace windserve::engine
