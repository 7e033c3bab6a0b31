/**
 * @file
 * Replicated control plane: the global scheduler as a Raft-shaped
 * replicated state machine.
 *
 * N scheduler replicas run as actors on the owning cluster's
 * simulator. Each replica has an ingress SharedChannel ("ctrl/<k>")
 * modeling its NIC receive path; every protocol message (RequestVote,
 * AppendEntries and their replies) is a timed transfer on the
 * receiver's channel, so control traffic shares the same congestion
 * physics as data traffic. Election timeouts are drawn from
 * per-replica RNGs forked in index order from the control-plane seed,
 * which makes the whole protocol — including who wins each election —
 * a pure function of (config, seed).
 *
 * The protocol is the textbook core of Raft:
 *  - terms + randomized election timeouts + majority vote with the
 *    log up-to-date check (election.hpp / replicated_log.hpp);
 *  - a fresh leader appends a NoOp barrier so its term commits;
 *  - AppendEntries heartbeats replicate the log, with per-follower
 *    next/match indices and decrement-on-reject conflict resolution;
 *  - an entry commits when a majority stores it and its term is the
 *    leader's current term; commit applies entries in log order.
 *
 * Client intents (propose()) are exactly-once: each gets a unique seq
 * and its apply closure fires on the first commit of that seq; later
 * duplicate log entries for the same seq (a re-proposal across a
 * leader change) are deduplicated. An intent proposed while no leader
 * is up waits in the pending set and is appended by the next leader.
 *
 * Failover time is measured from the moment the acting leader crashes
 * (or is partitioned away) to the first commit-index advance
 * afterwards — the new leader's NoOp commit, i.e. the instant the
 * control plane can dispatch again.
 *
 * The owner injects faults via on_leader_crash()/on_partition() (the
 * cluster translates fault::FaultEvent), and wires the auditor's
 * split-brain / commit-conflict / double-apply invariants via
 * set_audit(). All events the control plane schedules are tagged with
 * the "ctrl" profiler source.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "ctrl/election.hpp"
#include "ctrl/kv_directory.hpp"
#include "ctrl/replicated_log.hpp"
#include "hw/transfer_engine.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "simcore/stats.hpp"

namespace windserve::audit {
class SimAuditor;
}
namespace windserve::obs {
class DecisionJournal;
}

namespace windserve::ctrl {

/** Dials of the replicated control plane. */
struct ControlPlaneConfig {
    /** Scheduler replicas. <= 1 means no control plane is built — the
     *  owner keeps the historical immortal-coordinator path. */
    std::size_t replicas = 1;
    /** Leader AppendEntries period, seconds. */
    double heartbeat_interval = 0.05;
    /** Election timeout drawn uniformly from [min, max) per arm. */
    double election_timeout_min = 0.15;
    double election_timeout_max = 0.30;
    /** Base size of a protocol message on the wire. */
    double msg_bytes = 1024.0;
    /** Additional bytes per replicated log entry. */
    double entry_bytes = 256.0;
    /** Max entries shipped per AppendEntries. */
    std::size_t max_batch = 16;
    /** RNG seed; 0 lets the owner derive one from the run seed. */
    std::uint64_t seed = 0;
    /** Link shape of each replica's ingress channel. bandwidth <= 0
     *  lets the owner fill in the topology's NIC parameters. */
    hw::Link link{hw::LinkType::InterNode, 0.0, 0.0};
};

/** See file comment. */
class ControlPlane
{
  public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    ControlPlane(sim::Simulator &sim, ControlPlaneConfig cfg);
    ~ControlPlane();
    ControlPlane(const ControlPlane &) = delete;
    ControlPlane &operator=(const ControlPlane &) = delete;

    void set_audit(audit::SimAuditor *a) { audit_ = a; }
    /** Failover decisions are journaled here. */
    void set_journal(obs::DecisionJournal *j) { journal_ = j; }

    /** Arm the election timers; call once at the start of replay. */
    void start();

    /** Cancel all timers (traffic drained / end of run). Idempotent. */
    void stop();

    /**
     * Submit a scheduler intent. @p apply fires exactly once, when the
     * entry first commits; until then the decision is pending. With no
     * live leader the intent waits and is appended by the next one.
     */
    void propose(CommandKind kind, std::uint64_t request,
                 std::function<void()> apply);

    /** Crash the acting leader (or replica @p hint % N when no leader
     *  is up); it repairs @p repair_after seconds later. */
    void on_leader_crash(double repair_after, std::uint64_t hint);

    /** Partition replica (@p hint % N) away from the fabric for
     *  @p duration seconds (its timers keep running — classic Raft
     *  term inflation on heal). */
    void on_partition(double duration, std::uint64_t hint);

    /** The coherent KV-backup directory (see kv_directory.hpp). */
    KvDirectory &directory() { return directory_; }
    const KvDirectory &directory() const { return directory_; }

    // ---- introspection / telemetry ----

    std::size_t num_replicas() const { return replicas_.size(); }
    /** Acting leader (up, highest term), or kNone. */
    std::size_t leader() const;
    /** Highest term any replica has reached. */
    std::uint64_t max_term() const;
    Role role_of(std::size_t k) const { return replicas_[k]->elect.role(); }
    std::uint64_t commit_index_of(std::size_t k) const
    {
        return replicas_[k]->commit_index;
    }

    std::uint64_t elections() const { return elections_; }
    std::uint64_t commits() const { return commits_; }
    std::uint64_t applies() const { return applies_; }
    std::uint64_t heartbeats() const { return heartbeats_; }
    std::uint64_t messages_sent() const { return messages_sent_; }
    std::uint64_t messages_dropped() const { return messages_dropped_; }
    std::uint64_t leader_crashes() const { return leader_crashes_; }
    std::uint64_t partitions() const { return partitions_; }
    std::uint64_t failovers() const { return failovers_; }
    std::uint64_t reproposals() const { return reproposals_; }
    /** Intents proposed but not yet applied. */
    std::uint64_t pending_intents() const { return pending_.size(); }
    const sim::Sample &failover_latency() const { return failover_latency_; }

  private:
    /** One client intent awaiting its exactly-once apply. */
    struct Intent {
        CommandKind kind;
        std::uint64_t request;
        std::function<void()> apply;
        /** Term of the leader that last appended this intent (0 =
         *  never appended); a new leader re-appends iff < its term. */
        std::uint64_t appended_term = 0;
    };

    /** One scheduler replica (sim actor on the cluster's simulator). */
    struct Replica {
        Replica(std::size_t id, std::size_t n) : elect(id, n) {}
        LeaderElection elect;
        ReplicatedLog log;
        std::size_t commit_index = 0;
        bool up = true;
        double partitioned_until = 0.0;
        sim::Rng rng{0};
        std::unique_ptr<hw::SharedChannel> ingress;
        sim::EventHandle election_timer;
        sim::EventHandle heartbeat_timer;
        // leader bookkeeping (re-initialized on each election win)
        std::vector<std::size_t> next_index;
        std::vector<std::size_t> match_index;
    };

    bool alive(std::size_t k) const
    {
        const Replica &r = *replicas_[k];
        return r.up && sim_.now() >= r.partitioned_until;
    }

    void send(std::size_t from, std::size_t to, double extra_bytes,
              std::function<void()> deliver);

    void arm_election_timer(std::size_t k);
    void on_election_timeout(std::size_t k);
    void deliver_vote_request(std::size_t k, std::uint64_t term,
                              std::size_t candidate,
                              std::uint64_t cand_last_term,
                              std::size_t cand_last_index);
    void deliver_vote_reply(std::size_t k, std::uint64_t term, bool granted);
    void become_leader(std::size_t k);
    void maybe_step_down(std::size_t k, std::uint64_t term);

    void arm_heartbeat(std::size_t k);
    void on_heartbeat(std::size_t k);
    /** Append every pending intent the leader's term has not yet
     *  appended (covers no-leader-at-propose and leader changes). */
    void append_unappended(std::size_t k);
    void broadcast_append(std::size_t k);
    void send_append_to(std::size_t k, std::size_t peer);
    void deliver_append(std::size_t k, std::uint64_t term,
                        std::size_t leader, std::size_t prev_index,
                        std::uint64_t prev_term,
                        std::vector<LogEntry> entries,
                        std::size_t leader_commit);
    void deliver_append_reply(std::size_t k, std::size_t follower,
                              std::uint64_t term, bool success,
                              std::size_t match);
    void advance_commit(std::size_t k);
    void commit_to(std::size_t k, std::size_t index);
    void apply_entry(const LogEntry &e);
    void begin_failover_clock();

    sim::Simulator &sim_;
    ControlPlaneConfig cfg_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    /** Unapplied intents by seq (ordered: leaders append in proposal
     *  order). An intent leaves the map when it applies, so a heartbeat
     *  scans only what is still pending. */
    std::map<std::uint64_t, Intent> pending_;
    std::uint64_t seq_counter_ = 0;
    KvDirectory directory_;
    bool started_ = false;
    bool stopped_ = false;

    bool failover_pending_ = false;
    double failover_start_ = 0.0;

    std::uint64_t elections_ = 0;
    std::uint64_t commits_ = 0;
    std::uint64_t applies_ = 0;
    std::uint64_t heartbeats_ = 0;
    std::uint64_t messages_sent_ = 0;
    std::uint64_t messages_dropped_ = 0;
    std::uint64_t leader_crashes_ = 0;
    std::uint64_t partitions_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t reproposals_ = 0;
    sim::Sample failover_latency_;

    audit::SimAuditor *audit_ = nullptr;
    obs::DecisionJournal *journal_ = nullptr;
};

} // namespace windserve::ctrl
