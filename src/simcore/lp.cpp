#include "simcore/lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace windserve::sim {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
} // namespace

void
LpScheduler::post(SimTime when, std::function<void()> fn)
{
    ++messages_;
    hub_.schedule_at(when, std::move(fn));
}

double
LpScheduler::effective_window() const
{
    return std::max(cfg_.lookahead, cfg_.window);
}

LpScheduler::Window
LpScheduler::compute_window(SimTime t0, double eff_window, SimTime hub_next,
                            double tick, SimTime horizon)
{
    SimTime excl = t0 + eff_window;
    if (hub_next < excl)
        excl = hub_next; // never run past an un-fired hub event
    // Inclusive boundary candidates: the window always covers t0 itself
    // (progress guarantee — with W = 0 this is lockstep pumping), and
    // is truncated inclusively at the first pending telemetry tick or
    // the horizon, whichever comes first, so neither is overrun.
    SimTime cap = horizon;
    if (tick > 0.0) {
        SimTime tau = std::ceil(t0 / tick) * tick;
        if (tau < t0) // fp guard: ceil can land one grid step low
            tau += tick;
        cap = std::min(cap, tau);
    }
    if (cap < excl)
        return Window{cap, cap};
    return Window{excl, t0};
}

SimTime
LpScheduler::run_until(SimTime horizon)
{
    for (;;) {
        const SimTime hub_next = hub_.pending() ? hub_.next_time() : kInf;
        SimTime t0 = hub_next;
        for (const Simulator *lp : lps_) {
            if (lp->pending())
                t0 = std::min(t0, lp->next_time());
        }
        if (t0 == kInf || t0 > horizon)
            break;
        if (hub_next <= t0) {
            // Hub phase (hub-first at ties): park the LPs at t0 so hub
            // handlers reaching into LP-owned objects see clocks and
            // schedule events at the hub's own timestamp.
            for (Simulator *lp : lps_)
                lp->advance_to(t0);
            ++hub_phases_;
            hub_phase_ = true;
            try {
                hub_.run_until(t0);
            } catch (...) {
                hub_phase_ = false;
                throw;
            }
            hub_phase_ = false;
            continue;
        }
        // Window phase: hub_next > t0, so some LP owns the minimum.
        hub_.notify_batch(t0); // emit telemetry ticks strictly below t0
        const Window w = compute_window(t0, effective_window(), hub_next,
                                        cfg_.tick, horizon);
        ++windows_;
        // LP index order is the message order: posts land on the hub
        // heap in (LP index, post order).
        for (Simulator *lp : lps_)
            lp->run_window(w.excl, w.incl);
    }
    // Settle every clock on the global last-event time so end-of-run
    // statistics (utilization denominators, trailing telemetry ticks)
    // equal what one shared queue would have reported.
    SimTime g = hub_.now();
    for (const Simulator *lp : lps_)
        g = std::max(g, lp->now());
    hub_.advance_to(g);
    for (Simulator *lp : lps_)
        lp->advance_to(g);
    return g;
}

} // namespace windserve::sim
