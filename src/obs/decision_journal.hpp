/**
 * @file
 * Scheduler decision journal: WHY each dynamic-scheduling choice fell
 * the way it did.
 *
 * WindServe's contribution is stream-based dynamic scheduling — per-
 * request prefill dispatch (Algorithm 1), memory-pressure rescheduling
 * (migration), and backup-aware re-dispatch after faults. Aggregate
 * counters say how often each fired; the journal records each decision
 * with the candidate set considered, the loads/scores that drove it and
 * the chosen target, so a post-run query can answer "why did request
 * 1042 prefill on the decode instance?" without rerunning.
 *
 * The journal is a subscriber of the run's obs::Probe: the deciding
 * components report each deliberation once, with the evidence that
 * scored it, and on_record() assembles the Decision (candidate names,
 * score names, chosen target) here, so no component knows the journal
 * format. Entries arrive in simulation order, so the journal is a pure
 * function of (config, workload) — byte-identical at any `--jobs N`.
 * Export targets: a flat CSV (one row per candidate) and a JSON
 * document (one object per decision).
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/probe.hpp"

namespace windserve::sim {
class Simulator;
}

namespace windserve::obs {

/** One candidate target the scheduler weighed. */
struct DecisionOption {
    std::string target; ///< e.g. "prefill", "decode", "resume-backup"
    bool feasible = true;
    /** The numbers that scored this candidate (name -> value). */
    std::vector<std::pair<std::string, double>> scores;
};

/** One recorded decision. */
struct Decision {
    double time = 0.0;
    /** Dispatch, Reschedule, Redispatch or Failover. */
    ProbeKind kind = ProbeKind::Dispatch;
    std::uint64_t request = 0;
    std::vector<DecisionOption> candidates;
    std::string chosen; ///< target of the winning candidate ("" = none)
    std::string reason; ///< machine-readable why (e.g. "ttft_over_thrd")
};

/** See file comment. */
class DecisionJournal : public Subscriber
{
  public:
    /** The kinds the journal keeps. */
    static constexpr KindMask kKinds =
        kinds_of({ProbeKind::Dispatch, ProbeKind::Reschedule,
                  ProbeKind::Redispatch, ProbeKind::Failover});

    DecisionJournal() = default;
    DecisionJournal(const DecisionJournal &) = delete;
    DecisionJournal &operator=(const DecisionJournal &) = delete;

    /** Subscribe to @p probe, stamping decisions with @p clock's time. */
    void attach(Probe &probe, const sim::Simulator &clock);

    /** Append the Decision one record describes. */
    void on_record(const Record &r) override;

    const std::vector<Decision> &entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }

    /** Entries of one kind. */
    std::size_t count(ProbeKind k) const;

    /** All decisions that touched @p request, in simulation order. */
    std::vector<const Decision *> for_request(std::uint64_t request) const;

    /** Flat CSV, one row per (decision, candidate):
     *  `time,kind,request,chosen,reason,candidate,feasible,scores`
     *  with scores packed `name=value` separated by `;`. */
    std::string csv() const;

    /** JSON document: `{"decisions": [...]}`. */
    std::string json() const;

  private:
    const sim::Simulator *clock_ = nullptr;
    std::vector<Decision> entries_;
};

} // namespace windserve::obs
