#include "hw/transfer_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>


namespace windserve::hw {

Channel::Channel(sim::Simulator &sim, Link link, std::string name)
    : sim_(sim), link_(link), name_(std::move(name)),
      src_tag_("link/" + name_), util_(sim.now())
{
    if (link_.bandwidth <= 0.0)
        throw std::invalid_argument("Channel: bandwidth must be positive");
}

TransferId
Channel::submit(double bytes, std::function<void()> on_complete)
{
    if (bytes < 0.0)
        throw std::invalid_argument("Channel::submit: negative bytes");
    TransferId id = next_id_++;
    if (probe_)
        probe_->emit(obs::ProbeKind::XferSubmit, owner_, id,
                     obs::LinkOp{bytes});
    done_[id] = false;
    total_bytes_ += bytes;
    queue_.push_back(Transfer{id, bytes, 0.0, std::move(on_complete)});
    if (!active_)
        start_next();
    return id;
}

void
Channel::settle_active_progress()
{
    if (!active_)
        return;
    if (rate_factor_ <= 0.0) {
        // Stalled link: no latency was paid, no byte moved.
        active_started_ = sim_.now();
        return;
    }
    double elapsed = sim_.now() - active_started_;
    double lat_used = std::min(elapsed, active_latency_left_);
    double wire_time = elapsed - lat_used;
    active_latency_left_ -= lat_used;
    double moved = std::min(active_->bytes - active_->sent,
                            wire_time * link_.bandwidth * rate_factor_);
    active_->sent += moved;
    active_started_ = sim_.now();
}

void
Channel::reschedule_active()
{
    if (!active_)
        return;
    if (active_event_) {
        sim_.cancel(active_event_);
        active_event_.reset();
    }
    if (rate_factor_ <= 0.0)
        return; // stalled; set_rate_factor reschedules on restore
    double remaining = active_->bytes - active_->sent;
    double dur =
        active_latency_left_ + remaining / (link_.bandwidth * rate_factor_);
    sim::SourceScope src(sim_, src_tag_);
    active_event_ = sim_.schedule(dur, [this] {
        active_event_.reset();
        settle_active_progress();
        finish_active();
    });
}

void
Channel::set_rate_factor(double factor)
{
    factor = std::max(0.0, factor);
    if (factor == rate_factor_)
        return;
    settle_active_progress();
    rate_factor_ = factor;
    reschedule_active();
}

void
Channel::start_next()
{
    if (active_ || queue_.empty())
        return;
    active_ = std::make_unique<Transfer>(std::move(queue_.front()));
    queue_.pop_front();
    active_started_ = sim_.now();
    active_begun_ = sim_.now();
    active_latency_left_ = link_.latency;
    util_.set_busy(sim_.now(), true);
    reschedule_active();
}

void
Channel::finish_active()
{
    auto done = std::move(active_);
    active_.reset();
    done_[done->id] = true;
    ++completed_;
    if (probe_) {
        probe_->emit(obs::ProbeKind::XferComplete, owner_, done->id,
                     obs::LinkOp{done->bytes, false, active_begun_,
                                 sim_.now(), link_.bandwidth,
                                 link_.latency});
    }
    if (queue_.empty())
        util_.set_busy(sim_.now(), false);
    else
        start_next();
    if (done->on_complete)
        done->on_complete();
    // A callback may have submitted more work while the channel was idle;
    // submit() handles starting it, so nothing further to do here.
}

void
Channel::append(TransferId id, double bytes)
{
    if (bytes < 0.0)
        throw std::invalid_argument("Channel::append: negative bytes");
    if (bytes == 0.0)
        return;
    auto it = done_.find(id);
    bool open = it != done_.end() && !it->second;
    if (probe_) {
        probe_->emit(obs::ProbeKind::XferAppend, owner_, id,
                     obs::LinkOp{bytes, open});
    }
    if (it == done_.end())
        throw std::invalid_argument("Channel::append: unknown transfer");
    if (it->second)
        throw std::logic_error("Channel::append: transfer already complete");
    total_bytes_ += bytes;
    if (active_ && active_->id == id) {
        settle_active_progress();
        active_->bytes += bytes;
        reschedule_active();
        return;
    }
    for (auto &t : queue_) {
        if (t.id == id) {
            t.bytes += bytes;
            return;
        }
    }
    throw std::logic_error("Channel::append: transfer not found in queue");
}

double
Channel::remaining_bytes(TransferId id) const
{
    auto it = done_.find(id);
    if (it == done_.end() || it->second)
        return 0.0;
    if (active_ && active_->id == id) {
        double elapsed = sim_.now() - active_started_;
        double wire_time =
            std::max(0.0, elapsed - active_latency_left_);
        double moved = std::min(active_->bytes - active_->sent,
                                wire_time * link_.bandwidth * rate_factor_);
        return active_->bytes - active_->sent - moved;
    }
    for (const auto &t : queue_)
        if (t.id == id)
            return t.bytes;
    return 0.0;
}

bool
Channel::is_done(TransferId id) const
{
    auto it = done_.find(id);
    return it != done_.end() && it->second;
}

double
Channel::mean_utilization(sim::SimTime now)
{
    util_.finalize(now);
    return util_.mean_utilization();
}

void
Channel::set_probe(obs::Probe *p, const std::string &process,
                   const std::string &track)
{
    probe_ = p;
    owner_ = p ? p->add_owner(name_, process, track) : obs::kNoOwner;
}

// ---------------------------------------------------------------------------
// SharedChannel: processor-sharing fluid model.
//
// Invariant: between two simulator events the set of transfers with
// remaining bytes is constant, so the drain rate per transfer is a
// constant bandwidth * rate_factor / k and the next state change (a
// transfer exhausting its bytes, or a drained transfer reaching its
// latency floor) can be computed exactly. Every mutation (submit,
// rate change, boundary) settles elapsed progress first and then
// schedules exactly one event at the next boundary.
// ---------------------------------------------------------------------------

namespace {
/// Byte slack below which a transfer counts as fully drained. Boundary
/// times are computed from the same remaining values that settle()
/// subtracts, so the error is pure floating-point rounding.
constexpr double kByteEps = 1e-6;
/// Time slack for "latency floor already reached" at a boundary.
constexpr double kTimeEps = 1e-12;
} // namespace

SharedChannel::SharedChannel(sim::Simulator &sim, Link link, std::string name)
    : sim_(sim), link_(link), name_(std::move(name)),
      src_tag_("link/" + name_), last_settle_(sim.now()), util_(sim.now())
{
    if (link_.bandwidth <= 0.0)
        throw std::invalid_argument(
            "SharedChannel: bandwidth must be positive");
}

TransferId
SharedChannel::submit(double bytes, std::function<void()> on_complete)
{
    if (bytes < 0.0)
        throw std::invalid_argument("SharedChannel::submit: negative bytes");
    TransferId id = next_id_++;
    if (probe_)
        probe_->emit(obs::ProbeKind::XferSubmit, owner_, id,
                     obs::LinkOp{bytes});
    done_[id] = false;
    total_bytes_ += bytes;
    settle();
    if (active_.empty())
        util_.set_busy(sim_.now(), true);
    active_.push_back(Active{id, bytes, bytes, sim_.now() + link_.latency,
                             sim_.now(), std::move(on_complete)});
    reschedule();
    return id;
}

void
SharedChannel::settle()
{
    double dt = sim_.now() - last_settle_;
    last_settle_ = sim_.now();
    if (dt <= 0.0 || rate_factor_ <= 0.0)
        return;
    std::size_t draining = 0;
    for (const Active &a : active_)
        if (a.remaining > 0.0)
            ++draining;
    if (draining == 0)
        return;
    double drained = dt * link_.bandwidth * rate_factor_ /
                     static_cast<double>(draining);
    for (Active &a : active_) {
        if (a.remaining <= 0.0)
            continue;
        a.remaining -= drained;
        if (a.remaining <= kByteEps) {
            a.remaining = 0.0;
            // Bytes fully drained: the wire latency is an additive tail
            // (matching Channel's latency + bytes/bandwidth service time
            // and the auditor's capacity bound), so completion lands
            // one propagation delay after the drain boundary.
            a.min_done = sim_.now() + link_.latency;
        }
    }
}

void
SharedChannel::reschedule()
{
    if (event_) {
        sim_.cancel(event_);
        event_.reset();
    }
    if (active_.empty())
        return;
    double share = current_share();
    double next = std::numeric_limits<double>::infinity();
    for (const Active &a : active_) {
        if (a.remaining > 0.0) {
            if (share > 0.0)
                next = std::min(next, sim_.now() + a.remaining / share);
        } else {
            next = std::min(next, a.min_done);
        }
    }
    if (!std::isfinite(next))
        return; // stalled link with only undrained transfers
    sim::SourceScope src(sim_, src_tag_);
    event_ = sim_.schedule(std::max(0.0, next - sim_.now()),
                           [this] { on_boundary(); });
}

void
SharedChannel::on_boundary()
{
    event_.reset();
    settle();
    // Guard against a zero-progress spin: when a transfer's residual
    // drain time falls below the ulp of the current sim time, the
    // boundary event fires at an unchanged timestamp and settle() sees
    // dt == 0 forever. Clamp anything that would drain within that
    // resolution.
    double share = current_share();
    if (share > 0.0) {
        double tol = std::max(kTimeEps, sim_.now() * 4.0 *
                                            std::numeric_limits<
                                                double>::epsilon());
        for (Active &a : active_) {
            if (a.remaining > 0.0 && a.remaining <= share * tol) {
                a.remaining = 0.0;
                a.min_done = sim_.now() + link_.latency;
            }
        }
    }
    // Peel off every transfer that is both drained and past its latency
    // floor, preserving submission order for deterministic callbacks.
    std::vector<Active> ready;
    auto keep = active_.begin();
    for (auto it = active_.begin(); it != active_.end(); ++it) {
        if (it->remaining <= 0.0 && it->min_done <= sim_.now() + kTimeEps) {
            ready.push_back(std::move(*it));
        } else {
            if (keep != it)
                *keep = std::move(*it);
            ++keep;
        }
    }
    active_.erase(keep, active_.end());
    if (active_.empty())
        util_.set_busy(sim_.now(), false);
    reschedule();
    for (Active &a : ready) {
        done_[a.id] = true;
        ++completed_;
        if (probe_) {
            probe_->emit(obs::ProbeKind::XferComplete, owner_, a.id,
                         obs::LinkOp{a.bytes, false, a.begun, sim_.now(),
                                     link_.bandwidth, link_.latency});
        }
        if (a.on_complete)
            a.on_complete();
    }
}

void
SharedChannel::set_rate_factor(double factor)
{
    factor = std::max(0.0, factor);
    if (factor == rate_factor_)
        return;
    settle();
    rate_factor_ = factor;
    reschedule();
}

double
SharedChannel::current_share() const
{
    if (rate_factor_ <= 0.0)
        return 0.0;
    std::size_t draining = 0;
    for (const Active &a : active_)
        if (a.remaining > 0.0)
            ++draining;
    if (draining == 0)
        return 0.0;
    return link_.bandwidth * rate_factor_ / static_cast<double>(draining);
}

double
SharedChannel::inflight_bytes() const
{
    // Account for progress since the last settle without mutating state:
    // between events the drain rate is constant, so the elapsed share is
    // exact (capped per transfer at its own remaining bytes).
    double elapsed = sim_.now() - last_settle_;
    double share = current_share();
    double sum = 0.0;
    for (const Active &a : active_)
        sum += std::max(0.0, a.remaining - elapsed * share);
    return sum;
}

bool
SharedChannel::is_done(TransferId id) const
{
    auto it = done_.find(id);
    return it != done_.end() && it->second;
}

double
SharedChannel::mean_utilization(sim::SimTime now)
{
    util_.finalize(now);
    return util_.mean_utilization();
}

void
SharedChannel::set_probe(obs::Probe *p, const std::string &process,
                         const std::string &track)
{
    probe_ = p;
    owner_ = p ? p->add_owner(name_, process, track) : obs::kNoOwner;
}

} // namespace windserve::hw
