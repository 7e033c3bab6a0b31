#include "engine/serving_system.hpp"

#include <stdexcept>

#include "fault/fault_injector.hpp"
#include "obs/probe.hpp"
#include "obs/trace_recorder.hpp"
#include "simcore/simulator.hpp"

namespace windserve::engine {

ServingSystem::ServingSystem() = default;
ServingSystem::~ServingSystem() = default;

std::uint64_t
ServingSystem::total_events_fired()
{
    return simulator().events_fired();
}

void
ServingSystem::link_attachments(const Attachments &fresh)
{
    if (!faults_)
        return;
    if (telemetry_ && (fresh.telemetry || fresh.faults)) {
        // The chaos-engine counters exist once both attachments do.
        obs::MetricRegistry &reg = telemetry_->registry();
        const fault::FaultInjector *inj = faults_.get();
        const std::string help =
            "Cumulative fault-engine events by kind";
        reg.counter("ws_fault_events_total", "kind=\"instance_crash\"",
                    [inj] {
                        return static_cast<double>(
                            inj->instance_crashes());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"node_crash\"",
                    [inj] {
                        return static_cast<double>(inj->node_crashes());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"link_outage\"",
                    [inj] {
                        return static_cast<double>(inj->link_outages());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"straggler_window\"",
                    [inj] {
                        return static_cast<double>(
                            inj->straggler_windows());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"redispatch\"",
                    [inj] {
                        return static_cast<double>(inj->redispatches());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"retry\"",
                    [inj] {
                        return static_cast<double>(inj->retries());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"abort\"",
                    [inj] {
                        return static_cast<double>(inj->aborts());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"transfer_timeout\"",
                    [inj] {
                        return static_cast<double>(
                            inj->transfer_timeouts());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"recovery\"",
                    [inj] {
                        return static_cast<double>(inj->recoveries());
                    },
                    help);
    }
    if (probe_)
        faults_->set_probe(probe_.get());
    if (audit_)
        audit_->set_faults_enabled(true);
}

RunResult
ServingSystem::run(const std::vector<workload::Request> &trace,
                   const RunOptions &opts)
{
    if (opts.intra_threads != 1)
        throw std::invalid_argument(
            "RunOptions::intra_threads must be 1: runs are single-threaded "
            "(use sweep-level --jobs for parallelism)");
    // Only attachments the system does not hold yet are created, so a
    // repeated run() keeps (and never re-wires) the existing ones.
    Attachments fresh;
    if (opts.telemetry && !telemetry_) {
        telemetry_ = std::make_unique<obs::Telemetry>(*opts.telemetry);
        fresh.telemetry = telemetry_.get();
    }
    // One probe carries every subscriber's records. It is created with
    // the first subscriber and handed to the components once; a later
    // subscriber only subscribes.
    obs::DecisionJournal *journal =
        fresh.telemetry ? fresh.telemetry->journal() : nullptr;
    if ((journal || opts.tracing || opts.audit) && !probe_) {
        probe_ = std::make_unique<obs::Probe>();
        fresh.probe = probe_.get();
    }
    if (journal)
        journal->attach(*probe_, simulator());
    if (opts.tracing && !trace_) {
        trace_ =
            std::make_unique<obs::TraceRecorder>(simulator(), probe_.get());
    }
    if (opts.audit && !audit_) {
        audit_ = std::make_unique<audit::SimAuditor>(simulator(), *probe_,
                                                     *opts.audit);
    }
    if (opts.faults && !faults_) {
        fault::FaultConfig fc = *opts.faults;
        if (fc.horizon <= 0.0)
            fc.horizon = opts.horizon;
        faults_ = std::make_unique<fault::FaultInjector>(
            simulator(), fault::FaultPlan::generate(fc));
        fresh.faults = faults_.get();
    }
    wire(fresh);
    link_attachments(fresh);
    if (fresh.telemetry)
        fresh.telemetry->arm(simulator());
    if (fresh.faults)
        fresh.faults->arm();

    replay(trace, opts.horizon);

    if (telemetry_)
        telemetry_->finish(simulator().now());

    RunResult out;
    out.requests = take_requests();
    out.metrics = metrics::Collector(opts.slo).collect(out.requests);
    fill_system_metrics(out.metrics);
    if (faults_) {
        out.metrics.instance_crashes = faults_->instance_crashes();
        out.metrics.link_outages = faults_->link_outages();
        out.metrics.straggler_windows = faults_->straggler_windows();
        out.metrics.fault_redispatches = faults_->redispatches();
        out.metrics.fault_retries = faults_->retries();
        out.metrics.fault_aborts = faults_->aborts();
        out.metrics.transfer_timeouts = faults_->transfer_timeouts();
        out.metrics.fault_recoveries = faults_->recoveries();
        out.metrics.recovery_latency = faults_->recovery_latency();
    }
    out.num_gpus = num_gpus();
    if (audit_) {
        audit_->finish_run(out.requests, out.metrics.num_finished,
                           out.metrics.num_unfinished);
    }
    if (trace_) {
        // Lifecycle spans are derived from the final timestamps, after
        // the replay: emitted in request order, so the trace is a pure
        // function of (config, workload) regardless of thread count.
        for (const auto &r : out.requests)
            trace_->record_request_lifecycle(r);
        // Sampled metric series render as Perfetto counter tracks
        // alongside the spans.
        if (telemetry_)
            telemetry_->registry().merge_counter_tracks(*trace_);
    }
    return out;
}

RunResult
ServingSystem::run(const std::vector<workload::Request> &trace,
                   const metrics::SloSpec &slo, double horizon)
{
    RunOptions opts;
    opts.slo = slo;
    opts.horizon = horizon;
    return run(trace, opts);
}

} // namespace windserve::engine
