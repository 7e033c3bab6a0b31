#include "simcore/simulator.hpp"

namespace windserve::sim {

SimTime
Simulator::run()
{
    while (!queue_.empty()) {
        // The clock must advance BEFORE the events fire so callbacks see
        // their own timestamp via now() and schedule relative to it. All
        // events at the same instant drain in one batch, in insertion
        // order — including ones the batch itself schedules for now().
        if (batch_hook_)
            batch_hook_(queue_.next_time());
        fired_ += queue_.run_next_batch(now_);
    }
    return now_;
}

SimTime
Simulator::run_until(SimTime horizon)
{
    while (!queue_.empty() && queue_.next_time() <= horizon) {
        now_ = queue_.next_time();
        if (batch_hook_)
            batch_hook_(now_);
        fired_ += queue_.run_batch(now_);
    }
    return now_;
}

bool
Simulator::step()
{
    if (queue_.empty())
        return false;
    now_ = queue_.next_time();
    if (batch_hook_)
        batch_hook_(now_);
    queue_.pop_and_run();
    ++fired_;
    return true;
}

} // namespace windserve::sim
