/**
 * @file
 * Link-level data movement with FIFO serialization.
 *
 * A Channel models one direction of one physical path (NVLink pair,
 * PCIe switch hop, host DMA). Transfers queue FIFO and occupy the full
 * link bandwidth while active — the behaviour of NCCL P2P copies and
 * cudaMemcpyAsync on a dedicated copy engine.
 *
 * Stall-free rescheduling (paper §3.3) needs two extra operations that
 * plain "send N bytes, call me back" APIs lack:
 *  - append(): grow an in-flight transfer (the migrating request keeps
 *    decoding, so its KV tail keeps growing while the transfer drains);
 *  - remaining_bytes(): the coordinator pauses the request only when the
 *    untransferred remainder falls below a threshold.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "hw/topology.hpp"
#include "obs/probe.hpp"
#include "simcore/simulator.hpp"
#include "simcore/utilization.hpp"

namespace windserve::hw {

/** Handle for an outstanding transfer. */
using TransferId = std::uint64_t;

/**
 * One direction of a physical link. FIFO, work-conserving, appendable.
 */
class Channel
{
  public:
    /**
     * @param sim   the shared simulation kernel
     * @param link  bandwidth/latency of the underlying path
     * @param name  diagnostic label
     */
    Channel(sim::Simulator &sim, Link link, std::string name = "chan");

    /**
     * Enqueue a transfer of @p bytes; @p on_complete fires when the last
     * byte lands. Zero-byte transfers complete after the link latency.
     */
    TransferId submit(double bytes, std::function<void()> on_complete);

    /**
     * Add @p bytes to a transfer that has not completed yet. The extra
     * bytes extend the same FIFO slot (no new latency term).
     */
    void append(TransferId id, double bytes);

    /** Bytes not yet on the wire for @p id (0 when complete/unknown). */
    double remaining_bytes(TransferId id) const;

    /** True once @p id 's completion callback has fired. */
    bool is_done(TransferId id) const;

    /** Transfers queued or active. */
    std::size_t inflight() const { return queue_.size() + (active_ ? 1 : 0); }

    /** Bytes submitted but not yet on the wire (queued + active rest). */
    double inflight_bytes() const
    {
        double sum = active_ ? active_->bytes - active_->sent : 0.0;
        for (const Transfer &t : queue_)
            sum += t.bytes;
        return sum;
    }

    /** True while any transfer is active or queued. */
    bool busy() const { return inflight() > 0; }

    /** Total bytes ever submitted (including appends). */
    double total_bytes() const { return total_bytes_; }

    /** Total transfers completed. */
    std::uint64_t completed() const { return completed_; }

    /** Time-averaged busy fraction of the channel. */
    double mean_utilization(sim::SimTime now);

    /** Report submit/append/complete to @p p as the row of this
     *  channel's name, traced on @p process / @p track. nullptr (the
     *  default) disables reporting. */
    void set_probe(obs::Probe *p, const std::string &process,
                   const std::string &track);

    /**
     * Scale the effective bandwidth (fault injection): 1.0 is nominal,
     * values in (0,1) model a degraded link, 0 stalls the channel —
     * in-flight progress is settled and frozen until a later call
     * restores a positive factor. Queued transfers are never lost;
     * degradation only stretches their completion times, so the
     * auditor's physical capacity bound still holds.
     */
    void set_rate_factor(double factor);
    double rate_factor() const { return rate_factor_; }

    const std::string &name() const { return name_; }
    const Link &link() const { return link_; }

  private:
    struct Transfer {
        TransferId id;
        double bytes;     ///< total bytes to move (grows via append)
        double sent;      ///< bytes already on the wire (active only)
        std::function<void()> on_complete;
    };

    void start_next();
    void reschedule_active();
    void settle_active_progress();
    void finish_active();

    sim::Simulator &sim_;
    Link link_;
    std::string name_;
    std::string src_tag_; ///< self-profiler source for link events
    std::deque<Transfer> queue_;
    std::unique_ptr<Transfer> active_;
    sim::SimTime active_started_ = 0.0;   ///< when current segment began
    sim::SimTime active_begun_ = 0.0;     ///< when the transfer left the queue
    double active_latency_left_ = 0.0;    ///< unpaid fixed latency
    double rate_factor_ = 1.0;            ///< fault-injected bandwidth scale
    sim::EventHandle active_event_;
    std::unordered_map<TransferId, bool> done_;
    TransferId next_id_ = 1;
    double total_bytes_ = 0.0;
    std::uint64_t completed_ = 0;
    sim::UtilizationTracker util_;
    obs::Probe *probe_ = nullptr;
    obs::OwnerId owner_ = obs::kNoOwner;
};

/**
 * A processor-sharing link: the congestion model of the inter-node
 * NIC/IB fabric. Unlike Channel (FIFO, one transfer owns the full
 * bandwidth), a SharedChannel starts every submitted transfer
 * immediately and divides the link bandwidth equally among all
 * transfers that still have bytes to move — k concurrent transfers
 * each progress at bandwidth/k, the standard fluid model of concurrent
 * RDMA streams on one NIC.
 *
 * A transfer of B bytes submitted at t0 completes at
 * byte-drain time + latency: the base latency is an additive
 * propagation tail, the same service-time shape as Channel's
 * latency + bytes/bandwidth. A transfer whose bytes are drained but
 * whose latency tail has not elapsed stops consuming bandwidth (it
 * leaves the sharing denominator).
 *
 * Completion order is deterministic: between simulator events the
 * drain rate is constant, the next boundary (a byte-exhaustion or a
 * completion) is computed exactly, and simultaneous completions fire
 * in submission order. set_rate_factor() scales the total bandwidth
 * for fault injection exactly as on Channel (0 stalls the link;
 * transfers are never lost). The audited capacity bound holds:
 * sharing only ever lengthens the drain relative to the full-rate
 * lower bound latency + bytes/bandwidth.
 */
class SharedChannel
{
  public:
    SharedChannel(sim::Simulator &sim, Link link, std::string name = "nic");

    /** Start a transfer of @p bytes; @p on_complete fires when the last
     *  byte lands (at the earliest after the link latency). */
    TransferId submit(double bytes, std::function<void()> on_complete);

    /** True once @p id 's completion callback has fired. */
    bool is_done(TransferId id) const;

    /** Transfers currently in flight. */
    std::size_t inflight() const { return active_.size(); }

    /** Bytes submitted but not yet delivered. */
    double inflight_bytes() const;

    /** True while any transfer is in flight. */
    bool busy() const { return !active_.empty(); }

    /** Total bytes ever submitted. */
    double total_bytes() const { return total_bytes_; }

    /** Total transfers completed. */
    std::uint64_t completed() const { return completed_; }

    /** Per-transfer drain rate right now: bandwidth x rate_factor / k
     *  over the k transfers still moving bytes (0 when idle/stalled). */
    double current_share() const;

    /** Time-averaged busy fraction of the link. */
    double mean_utilization(sim::SimTime now);

    /** Report submit/complete to @p p, as Channel::set_probe. */
    void set_probe(obs::Probe *p, const std::string &process,
                   const std::string &track);

    /** Scale the total bandwidth (fault injection): 1.0 nominal, (0,1)
     *  degraded, 0 stalls the link until a later restore. */
    void set_rate_factor(double factor);
    double rate_factor() const { return rate_factor_; }

    const std::string &name() const { return name_; }
    const Link &link() const { return link_; }

  private:
    struct Active {
        TransferId id;
        double bytes;     ///< total size (for audit/trace)
        double remaining; ///< bytes still to drain
        double min_done;  ///< earliest completion: drain time + latency
                          ///< (init submission + latency; reset when
                          ///< the last byte drains)
        double begun;     ///< submission time
        std::function<void()> on_complete;
    };

    /** Drain bytes for the time elapsed since the last settle. */
    void settle();
    /** Schedule the next boundary (exhaustion or completion). */
    void reschedule();
    /** Fire at a boundary: settle, complete every ready transfer (in
     *  submission order), reschedule. */
    void on_boundary();

    sim::Simulator &sim_;
    Link link_;
    std::string name_;
    std::string src_tag_;
    std::vector<Active> active_; ///< submission (id) order
    sim::SimTime last_settle_ = 0.0;
    double rate_factor_ = 1.0;
    sim::EventHandle event_;
    std::unordered_map<TransferId, bool> done_;
    TransferId next_id_ = 1;
    double total_bytes_ = 0.0;
    std::uint64_t completed_ = 0;
    sim::UtilizationTracker util_;
    obs::Probe *probe_ = nullptr;
    obs::OwnerId owner_ = obs::kNoOwner;
};

} // namespace windserve::hw
