/**
 * @file
 * Opt-in runtime invariant auditor for simulation runs.
 *
 * A SimAuditor is owned by one ServingSystem run (no globals) and is a
 * subscriber of the run's obs::Probe: components report each fact once
 * to the probe, and the auditor keeps independent shadow ledgers —
 * indexed by the probe's owner ids — and cross-checks them against the
 * counters the records carry, so a bookkeeping bug in either side
 * surfaces as a disagreement instead of a silently wrong metric curve.
 * With no auditor subscribed no audit record is built, so unaudited
 * runs are byte-identical to audited ones.
 *
 * Enforced invariants (see DESIGN.md §8 for the paper mapping):
 *  - KV block conservation per instance: the shadow ledger's
 *    per-request allocations always sum to the BlockManager's used
 *    count, never exceed capacity, and no request is double-allocated
 *    or double-freed;
 *  - decode-group membership: every running member carries its
 *    group's tag (so a request sits in at most one group), appears in
 *    its group once, and the group's cached context sum equals the
 *    recomputed one; no terminal request keeps a tag;
 *  - decode-group clock: each member's token count, next KV block
 *    crossing and finish pass, recomputed from its start pass, the
 *    group's pass count and the blocks it holds, match what the group
 *    serves and caches, and a member that has started is Decoding or
 *    Migrating;
 *  - host swap-pool conservation: bytes swapped out are credited back
 *    on swap-in, pool occupancy never exceeds capacity, no request is
 *    swapped out twice or swapped in while not resident;
 *  - request lifecycle legality: every state assignment is checked
 *    against the explicit transition table (arrive -> queue -> prefill
 *    -> kv-transfer -> decode -> finish, with migration/swap edges);
 *    Finished is terminal;
 *  - link causality and capacity: a transfer completes only after
 *    latency + bytes/bandwidth from the moment it occupied the link,
 *    all submitted/appended bytes are accounted for at completion, and
 *    appends/completes never reference closed transfers;
 *  - crash wipe: an instance crash leaves no KV blocks or host-pool
 *    bytes, in the component or the shadow;
 *  - scheduler evidence: a dispatch to decode fits the available
 *    slots, a rescheduling migration starts only at or above the
 *    occupancy trigger;
 *  - control plane: one leader per term, strictly increasing terms per
 *    replica, one (term, seq) per committed log index, and every
 *    scheduler intent applied exactly once;
 *  - monotonic simulated time across all audited events;
 *  - end-of-run accounting: finished + unfinished == trace size,
 *    finished requests generated exactly their output tokens, their
 *    lifecycle timestamps are ordered and telescope to the end-to-end
 *    latency, and no KV or swap residue maps to a finished request.
 *
 * On violation the auditor records the offending request id and sim
 * time and (by default) throws InvariantViolation carrying a repro
 * line (`--repro-seed=S --repro-config=...`) that examples/fuzz_runner
 * accepts to replay exactly that case.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/probe.hpp"
#include "workload/request.hpp"

namespace windserve::sim {
class Simulator;
}

namespace windserve::audit {

/** Tunables of one auditor. */
struct AuditConfig {
    /** Throw InvariantViolation on the first violation (default). When
     *  off, violations accumulate for report() instead. */
    bool fail_fast = true;
    /** Cap on stored violations when fail_fast is off. */
    std::size_t max_violations = 64;
    /** Slack for floating-point time/byte comparisons, seconds. */
    double time_tolerance = 1e-6;
    /** Seed that reproduces this run (stamped into the repro line). */
    std::uint64_t repro_seed = 0;
    /** Config token for the repro line (e.g. "windserve"). Empty: the
     *  run is not a fuzz case fuzz_runner could replay, so violations
     *  carry no repro line. */
    std::string repro_config;
    /** Extra CLI flags appended verbatim to the repro line (e.g.
     *  " --chaos" for fault-injected fuzz cases). */
    std::string repro_extra;
};

/** One recorded invariant violation. */
struct Violation {
    std::string invariant; ///< short invariant name, e.g. "kv-double-free"
    std::string detail;    ///< human-readable specifics
    double sim_time = 0.0; ///< simulated time of the offending event
    workload::RequestId req = 0; ///< offending request (0 if none)
};

/** Thrown by a fail-fast auditor; carries the violation and repro line. */
class InvariantViolation : public std::runtime_error
{
  public:
    InvariantViolation(Violation v, const std::string &what)
        : std::runtime_error(what), v_(std::move(v))
    {}

    const Violation &violation() const { return v_; }

  private:
    Violation v_;
};

/** See file comment. */
class SimAuditor : public obs::Subscriber
{
  public:
    /** The kinds the auditor checks. */
    static constexpr obs::KindMask kKinds = obs::kinds_of({
        obs::ProbeKind::KvAlloc,     obs::ProbeKind::KvGrow,
        obs::ProbeKind::KvRelease,   obs::ProbeKind::SwapOut,
        obs::ProbeKind::SwapIn,      obs::ProbeKind::SwapDrop,
        obs::ProbeKind::XferSubmit,
        obs::ProbeKind::XferAppend,  obs::ProbeKind::XferComplete,
        obs::ProbeKind::GroupCheck,  obs::ProbeKind::Wiped,
        obs::ProbeKind::Transition,  obs::ProbeKind::Dispatch,
        obs::ProbeKind::Reschedule,  obs::ProbeKind::Failover,
        obs::ProbeKind::Commit,      obs::ProbeKind::Apply,
    });

    /** @param sim the owning run's simulation kernel (timebase).
     *  @param probe the stream to subscribe to; its owner table names
     *  the ledgers. */
    SimAuditor(const sim::Simulator &sim, obs::Probe &probe,
               AuditConfig cfg = {});

    SimAuditor(const SimAuditor &) = delete;
    SimAuditor &operator=(const SimAuditor &) = delete;

    /** Check one record against the invariants of the file comment.
     *  Every record except GroupCheck counts one audited event (a
     *  GroupCheck counts one per member: the per-pass check stands in
     *  for the per-member Decoding transition and KV grow the clock no
     *  longer makes every pass). */
    void on_record(const obs::Record &r) override;

    /** True iff @p from -> @p to is a legal fault-free lifecycle edge. */
    static bool allowed(workload::RequestState from,
                        workload::RequestState to);

    /**
     * Admit the crash-recovery lifecycle edges on top of the fault-free
     * table: a live request may be thrown back to WaitingPrefill
     * (recompute) or WaitingDecode (backup restore), or move to Aborted
     * past the retry cap. Off by default so fault-free runs keep the
     * strict table.
     */
    void set_faults_enabled(bool on) { faults_enabled_ = on; }

    /**
     * Validate the final request set against the collected counts:
     * every request finished or counted unfinished, finished requests
     * complete and internally consistent (timestamps ordered, phase
     * durations telescoping to e2e), and no shadow-ledger residue maps
     * to a finished request. Ledgers are walked in owner-name order.
     */
    void finish_run(const std::vector<workload::Request> &requests,
                    std::size_t num_finished, std::size_t num_unfinished);

    // ------------------------------------------------------------------
    // introspection
    // ------------------------------------------------------------------

    bool ok() const { return total_violations_ == 0; }
    std::uint64_t events_audited() const { return events_; }
    std::uint64_t total_violations() const { return total_violations_; }
    const std::vector<Violation> &violations() const { return violations_; }

    /** Multi-line human-readable summary of recorded violations. */
    std::string report() const;

    /** CLI fragment replaying this run: "--repro-seed=S
     *  --repro-config=C" plus repro_extra. */
    std::string repro_line() const;

    const AuditConfig &config() const { return cfg_; }

  private:
    struct KvLedger {
        std::unordered_map<workload::RequestId, std::size_t> blocks;
        std::size_t used = 0;
    };
    struct PoolLedger {
        std::unordered_map<workload::RequestId, double> bytes;
        double used = 0.0;
    };
    struct OpenTransfer {
        double bytes = 0.0; ///< total submitted + appended
    };
    using XferLedger = std::unordered_map<std::uint64_t, OpenTransfer>;

    void on_kv(const obs::Record &r);
    void on_swap(const obs::Record &r);
    void on_transfer(const obs::Record &r);
    void on_decode_group(obs::OwnerId owner, const obs::GroupView &v);
    void on_instance_crash(obs::OwnerId owner, const obs::Wipe &w);
    void on_ctrl(const obs::Record &r);

    /** @p owner 's audit name. */
    const std::string &name(obs::OwnerId owner) const
    {
        return probe_.owner(owner).name;
    }
    /** @p owner 's row of @p ledgers, grown on first use. */
    template <typename L>
    static L &ledger(std::vector<L> &ledgers, obs::OwnerId owner)
    {
        if (owner >= ledgers.size())
            ledgers.resize(owner + 1);
        return ledgers[owner];
    }

    /** Advance the monotonic-clock check; counts one audited event. */
    void tick();
    void violate(std::string invariant, workload::RequestId req,
                 std::string detail);
    /** violate() with the detail streamed from @p parts. */
    template <typename... Parts>
    void fail(const char *invariant, workload::RequestId req,
              const Parts &...parts)
    {
        std::ostringstream os;
        (os << ... << parts);
        violate(invariant, req, os.str());
    }
    /** allowed() plus the fault-recovery edges when enabled. */
    bool edge_allowed(workload::RequestState from,
                      workload::RequestState to) const;

    const sim::Simulator &sim_;
    const obs::Probe &probe_;
    AuditConfig cfg_;
    bool faults_enabled_ = false;
    double last_time_ = 0.0;
    std::uint64_t events_ = 0;
    std::uint64_t total_violations_ = 0;
    std::vector<Violation> violations_;

    // Shadow ledgers, indexed by owner id.
    std::vector<KvLedger> kv_;
    std::vector<PoolLedger> pools_;
    std::vector<XferLedger> xfers_;

    // control-plane shadow state
    struct CtrlEntry {
        std::uint64_t term = 0;
        std::uint64_t seq = 0;
    };
    std::map<std::uint64_t, std::size_t> ctrl_leaders_; ///< term -> replica
    std::map<std::size_t, std::uint64_t> ctrl_last_term_; ///< replica -> term
    std::map<std::size_t, CtrlEntry> ctrl_committed_;   ///< index -> entry
    std::map<std::uint64_t, workload::RequestId> ctrl_applied_; ///< seq -> req
};

} // namespace windserve::audit
