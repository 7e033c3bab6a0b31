/**
 * @file
 * Per-run telemetry: metric sampling, decision journal, self-profiler.
 *
 * A Telemetry object is owned by one ServingSystem run (no globals) and
 * bundles the three observability pillars:
 *  - a MetricRegistry the system's components register instruments on
 *    (ServingSystem::wire()), sampled every `sample_every` simulated
 *    seconds;
 *  - a DecisionJournal that subscribes to the run's probe stream and
 *    keeps the dispatch / reschedule / re-dispatch / failover
 *    decisions;
 *  - a sim::PumpProfiler attributing fired events (and host wall-clock)
 *    to named event sources.
 *
 * Sampling rides the Simulator's batch hook instead of scheduling its
 * own events, so an instrumented run fires the exact same event
 * sequence as a bare one: request outcomes, metrics and traces are
 * byte-identical with telemetry on or off, and the sampled series are
 * bit-identical at any `--jobs N`.
 *
 * Thread safety: none, by design. A Telemetry belongs to one run and
 * is touched only by the thread executing that run; parallel sweeps
 * (`--jobs N`) build one per cell and never share it.
 */
#pragma once

#include <memory>
#include <string>

#include "obs/decision_journal.hpp"
#include "obs/metric_registry.hpp"
#include "simcore/pump_profiler.hpp"

namespace windserve::sim {
class Simulator;
}

namespace windserve::obs {

/** Per-run telemetry options (engine::RunOptions::telemetry). */
struct TelemetryConfig {
    /** Sim-seconds between metric samples; <= 0 disables periodic
     *  sampling (a single end-of-run sample is always taken). */
    double sample_every = 1.0;
    /** Attach the event-pump self-profiler. */
    bool self_profile = true;
    /** Record scheduler decisions into the journal. */
    bool journal = true;
};

/** See file comment. */
class Telemetry
{
  public:
    explicit Telemetry(TelemetryConfig cfg);
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    const TelemetryConfig &config() const { return cfg_; }

    MetricRegistry &registry() { return registry_; }
    const MetricRegistry &registry() const { return registry_; }

    /** The journal, or nullptr when cfg.journal is off; the system
     *  subscribes it to the run's probe (ServingSystem::run()). */
    DecisionJournal *journal()
    {
        return cfg_.journal ? &journal_ : nullptr;
    }
    const DecisionJournal &journal_data() const { return journal_; }

    sim::PumpProfiler &profiler() { return profiler_; }
    const sim::PumpProfiler &profiler() const { return profiler_; }

    /**
     * Hook into @p sim: installs the batch-boundary sampler and (if
     * configured) the event-pump profiler. Call after every instrument
     * is registered and before the replay schedules its first event.
     * A run has one simulator, cluster pods included, so both see
     * every event.
     */
    void arm(sim::Simulator &sim);

    /**
     * End-of-run flush: emit the remaining sample ticks up to
     * @p final_time (plus one closing sample at @p final_time itself
     * when off-grid) and detach from the simulator.
     */
    void finish(double final_time);

    /**
     * Self-profiler report: one row per event source, sorted by fired
     * count (desc, source id tiebreak), with count and share columns.
     * @p include_wall adds host wall-clock columns (ms and ns/event) —
     * useful for humans, non-deterministic across runs; leave it off
     * for byte-identity comparisons.
     */
    std::string profile_table(bool include_wall = false) const;

    /** Fraction of fired events attributed to a named source. */
    double attributed_fraction() const
    {
        return profiler_.attributed_fraction();
    }

  private:
    void on_batch(double t);

    TelemetryConfig cfg_;
    MetricRegistry registry_;
    DecisionJournal journal_;
    sim::PumpProfiler profiler_;
    sim::Simulator *sim_ = nullptr;
    std::uint64_t next_tick_ = 0; ///< next sample index (tick k = k*dt)
    bool finished_ = false;
};

} // namespace windserve::obs
