/**
 * @file
 * Conservative-lookahead logical-process scheduler.
 *
 * A run is partitioned into logical processes (LPs), each owning a
 * private sim::Simulator clock and event queue, plus one distinguished
 * HUB simulator holding everything cross-LP (arrivals, balancer, NIC
 * channels, fault timers). The scheduler advances the run as a sequence
 * of bounded-lag windows [t0, end] (Lubachevsky-style):
 *
 *  - t0 is the global minimum pending timestamp across the hub and all
 *    LPs, so every event below t0 has already fired — the classic
 *    conservative lower bound on timestamp (LBTS).
 *  - If the hub itself holds the minimum, a HUB PHASE runs all hub
 *    events at t0 with every LP clock advanced to t0 (hub-first at
 *    ties; hub handlers may safely call into LP-owned objects).
 *  - Otherwise a WINDOW PHASE lets every LP, in LP index order, fire
 *    its local events up to end = min(t0 + W, hub_next, next telemetry
 *    tick, horizon), where W = max(lookahead, window quantum). The
 *    lookahead floor is derived from the minimum cross-LP link latency
 *    (see core::cluster_lookahead_floor). W = 0 degenerates to
 *    lockstep pumping (each window fires exactly the t0-batch of each
 *    LP).
 *
 * Cross-LP interactions become timestamped MESSAGES: post() schedules
 * them straight onto the hub timeline. Windows run on the calling
 * thread in LP index order, so messages enter the hub heap in (LP
 * index, post order), and the heap's (time, insertion-seq) tie-break
 * turns that into a total (time, LP, seq) delivery order.
 *
 * Determinism: window boundaries are a pure function of queue state at
 * each boundary and execution order is fixed, so a run is a pure
 * function of its inputs. Hub handlers MAY observe LP state up to W
 * ahead of their own timestamp (bounded staleness); that skew is part
 * of the deterministic semantics.
 *
 * Telemetry: windows are clamped so they never fire past a pending
 * sampling tick; the scheduler calls hub notify_batch(t0) at every
 * window, so the registry samples each tick τ after all events ≤ τ
 * and before any event > τ — exactly the single-queue hook contract.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/simulator.hpp"

namespace windserve::sim {

/** See file comment. */
class LpScheduler
{
  public:
    struct Config {
        /// Conservative floor: minimum latency of any LP->hub->LP
        /// interaction. Windows may always extend at least this far.
        double lookahead = 0.0;
        /// Bounded-lag quantum: effective window W = max(lookahead,
        /// window). 0 with 0 lookahead = lockstep pumping.
        double window = 1e-3;
        /// Telemetry sampling grid (seconds); windows never fire past
        /// a pending tick. 0 disables the clamp.
        double tick = 0.0;
    };

    /** Window bounds: fire events with time < excl or time <= incl. */
    struct Window {
        SimTime excl;
        SimTime incl;
    };

    LpScheduler(Simulator &hub, Config cfg) : hub_(hub), cfg_(cfg) {}
    LpScheduler(const LpScheduler &) = delete;
    LpScheduler &operator=(const LpScheduler &) = delete;

    /** Register an LP simulator (borrowed). @return its LP index. */
    std::size_t add_lp(Simulator &sim)
    {
        lps_.push_back(&sim);
        return lps_.size() - 1;
    }

    /** Post @p fn onto the hub timeline at time @p when (clamped to
     *  the hub clock). */
    void post(SimTime when, std::function<void()> fn);

    /** True while hub events run (LP clocks parked at the hub time). */
    bool in_hub_phase() const { return hub_phase_; }

    /**
     * Drive hub + LPs to @p horizon (events at exactly the horizon
     * still fire), then settle every clock on the global last-event
     * time so end-of-run statistics match a single shared queue.
     * @return that final time.
     */
    SimTime run_until(SimTime horizon);

    /** Effective window quantum W = max(lookahead, window). */
    double effective_window() const;

    /**
     * Pure window-bound computation (exposed for unit tests): @p t0 the
     * global minimum timestamp, @p hub_next the hub's next pending time
     * (infinity when idle; > t0 in a window phase).
     */
    static Window compute_window(SimTime t0, double eff_window,
                                 SimTime hub_next, double tick,
                                 SimTime horizon);

    // ------------------------------------------------------------------
    // run counters (diagnostics; deterministic for a deterministic run)
    // ------------------------------------------------------------------
    std::uint64_t windows() const { return windows_; }
    std::uint64_t hub_phases() const { return hub_phases_; }
    std::uint64_t messages_posted() const { return messages_; }
    std::size_t num_lps() const { return lps_.size(); }

  private:
    Simulator &hub_;
    Config cfg_;
    std::vector<Simulator *> lps_;
    bool hub_phase_ = false;

    std::uint64_t windows_ = 0;
    std::uint64_t hub_phases_ = 0;
    std::uint64_t messages_ = 0;
};

} // namespace windserve::sim
