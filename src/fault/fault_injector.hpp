/**
 * @file
 * Runtime side of the chaos subsystem: fires a FaultPlan against live
 * components and drives recovery.
 *
 * The injector is owned by one ServingSystem run (the nullable-pointer
 * pattern of TraceRecorder/SimAuditor: no globals, byte-identical
 * results when absent). Systems register their instances and links,
 * then arm() schedules every FaultPlan event on the simulator:
 *
 *  - InstanceCrash: the instance loses all on-GPU KV and in-flight
 *    work (Instance::crash()), the system's crash hook extends the
 *    victim set (mid-transfer and mid-migration requests), and every
 *    victim re-enters the global scheduler via redispatch_request()
 *    under the bounded retry-with-backoff policy. Repair is scheduled
 *    at crash time + repair duration.
 *  - LinkDown/LinkUp: the channel's rate factor drops to the degrade
 *    factor (0 = hard stall) and is restored at window end.
 *  - StragglerBegin/End: the instance's execution-time multiplier.
 *
 * Recovery bookkeeping lives here: per-request attempt counts, the
 * crash->first-token recovery-latency sample, and the availability
 * counters the metrics layer reports. Systems call note_decode_ready()
 * when a recovering request reaches a decode queue again; that closes
 * the recovery window.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "simcore/stats.hpp"

namespace windserve::sim {
class Simulator;
}
namespace windserve::engine {
class Instance;
}
namespace windserve::hw {
class Channel;
class SharedChannel;
}
namespace windserve::audit {
class SimAuditor;
}
namespace windserve::obs {
class TraceRecorder;
}
namespace windserve::workload {
struct Request;
using RequestId = std::uint64_t; // mirrors workload/request.hpp
}

namespace windserve::fault {

/** See file comment. */
class FaultInjector
{
  public:
    FaultInjector(sim::Simulator &sim, FaultPlan plan);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultPlan &plan() const { return plan_; }
    const RecoveryPolicy &policy() const { return plan_.config().recovery; }

    // ------------------------------------------------------------------
    // wiring (before arm())
    // ------------------------------------------------------------------

    /** Register an instance as a crash/straggler target. Registration
     *  order is the modulo order of FaultEvent::target. */
    void add_instance(engine::Instance *inst);

    /** Register a channel as an outage target. */
    void add_channel(hw::Channel *chan);

    /** Register a processor-sharing link (inter-node NIC) as an outage
     *  target. Shares the modulo space with add_channel targets, in
     *  registration order. */
    void add_shared_channel(hw::SharedChannel *chan);

    /** Register a whole node — the instances of every pod placed on it
     *  — as a NodeCrash target. A node crash takes all of them down
     *  together with one shared repair time, deduplicating victims
     *  that were visible from more than one instance. */
    void add_node_group(std::vector<engine::Instance *> insts);

    /** System hook that routes a victim back through its global
     *  scheduler (called after the backoff delay). */
    void set_redispatch(std::function<void(workload::Request *)> fn);

    /**
     * System hook fired inside a crash, after Instance::crash() but
     * before any victim is re-dispatched. The system appends requests
     * only it can see (mid-transfer, mid-migration) to @p victims and
     * reconciles its own cross-instance state (backup copies, swap
     * intents).
     */
    void set_crash_hook(
        std::function<void(engine::Instance &, std::vector<workload::Request *> &)> fn);

    void set_audit(audit::SimAuditor *a) { audit_ = a; }
    void set_trace(obs::TraceRecorder *rec) { trace_ = rec; }

    /** System hook receiving control-plane fault events (LeaderCrash,
     *  ControlPartition). The owner routes them into its
     *  ctrl::ControlPlane; unrouted events are absorbed (systems
     *  without a replicated control plane ignore control chaos). */
    void set_ctrl_fault(std::function<void(const FaultEvent &)> fn);

    /** Schedule every plan event on the simulator. Call once. */
    void arm();

    // ------------------------------------------------------------------
    // recovery entry points (systems call these)
    // ------------------------------------------------------------------

    /**
     * Route @p r back through the global scheduler after a backoff
     * delay, aborting it once the attempt cap is exceeded. The delay
     * waits out @p not_before (e.g. the down instance's repair time)
     * so retries land when they can succeed instead of burning the
     * attempt budget against a dead instance.
     */
    void redispatch_request(workload::Request *r, double not_before = 0.0);

    /**
     * A recovering request reached a decode queue again: close its
     * recovery window and record the recovery latency. No-op for
     * requests that are not recovering, so systems may call it
     * unconditionally on their dispatch paths.
     */
    void note_decode_ready(workload::Request *r);

    /** Earliest time @p inst is (or will be) up again. */
    double up_time(const engine::Instance &inst) const;

    /** A transfer watchdog fired (KvTransferEngine hook). */
    void count_transfer_timeout() { ++transfer_timeouts_; }

    // ------------------------------------------------------------------
    // availability metrics
    // ------------------------------------------------------------------

    std::uint64_t instance_crashes() const { return crashes_; }
    std::uint64_t node_crashes() const { return node_crashes_; }
    std::uint64_t link_outages() const { return link_outages_; }
    std::uint64_t straggler_windows() const { return straggler_windows_; }
    std::uint64_t redispatches() const { return redispatches_; }
    std::uint64_t retries() const { return retries_; }
    std::uint64_t aborts() const { return aborts_; }
    std::uint64_t transfer_timeouts() const { return transfer_timeouts_; }
    std::uint64_t recoveries() const { return recoveries_; }

    /** Crash -> decode-ready latency over completed recoveries. */
    const sim::Sample &recovery_latency() const { return recovery_latency_; }

  private:
    struct Recovering {
        double crash_time = -1.0;
        std::size_t attempts = 0;
    };

    /** An outage target: a name plus a rate-factor setter, covering
     *  both FIFO channels and processor-sharing NIC links. */
    struct LinkTarget {
        std::string name;
        std::function<void(double)> set_rate;
    };

    void fire(const FaultEvent &ev);
    void do_crash(const FaultEvent &ev);
    void do_node_crash(const FaultEvent &ev);
    void do_link(const FaultEvent &ev);
    void do_straggler(const FaultEvent &ev);
    void abort_request(workload::Request *r);

    /** Shared crash path: take every up instance in @p insts down with
     *  one repair time, sweep and deduplicate victims across them, and
     *  re-dispatch each victim once. */
    void crash_instances(const std::vector<engine::Instance *> &insts,
                         double repair);

    sim::Simulator &sim_;
    FaultPlan plan_;
    std::vector<engine::Instance *> instances_;
    std::vector<LinkTarget> links_;
    std::vector<std::vector<engine::Instance *>> node_groups_;
    std::function<void(workload::Request *)> redispatch_;
    std::function<void(engine::Instance &, std::vector<workload::Request *> &)>
        crash_hook_;
    std::function<void(const FaultEvent &)> ctrl_fault_;
    audit::SimAuditor *audit_ = nullptr;
    obs::TraceRecorder *trace_ = nullptr;

    std::unordered_map<engine::Instance *, double> down_until_;
    std::map<workload::RequestId, Recovering> recovering_;

    std::uint64_t crashes_ = 0;
    std::uint64_t node_crashes_ = 0;
    std::uint64_t link_outages_ = 0;
    std::uint64_t straggler_windows_ = 0;
    std::uint64_t redispatches_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t aborts_ = 0;
    std::uint64_t transfer_timeouts_ = 0;
    std::uint64_t recoveries_ = 0;
    sim::Sample recovery_latency_;
};

} // namespace windserve::fault
