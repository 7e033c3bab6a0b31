/**
 * @file
 * The run's single observation sink: one typed probe stream that the
 * auditor, the trace recorder and the decision journal subscribe to.
 *
 * Every instrumented component holds one nullable `obs::Probe *` and
 * reports each fact once, at the site where it happens, as a Record:
 * a ProbeKind, the integer id of the owner that emitted it, the
 * request (or transfer) it is about, and a small kind-specific
 * payload. Subscribers turn records into their own vocabulary — the
 * auditor into shadow-ledger checks, the trace recorder into Chrome
 * trace events, the journal into decisions with their candidate sets
 * — so a new check is a new subscriber, not an edit to every
 * component.
 *
 * Owners are rows of a table filled at wire time. Each row holds the
 * owner's audit name (its ledger key and violation text) and its trace
 * location (process, track), so both exports render the names they
 * always did while records carry only an integer.
 *
 * Cost contract: with no probe attached a site costs one pointer test.
 * With a probe attached, a record is built only when some subscriber
 * subscribed to its kind (the per-kind interest mask); sites whose
 * payload is expensive to assemble test wants() first. Records are
 * delivered synchronously in emission order, which is simulation
 * order, so every export stays byte-identical at any `--jobs N`.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "workload/request.hpp"

namespace windserve::obs {

/** What a record reports, grouped by the component that emits it. */
enum class ProbeKind : std::uint8_t {
    // kvcache::BlockManager and SwapPool, before the operation applies
    // (a SwapOut / SwapIn is a decode member preempted to / resumed
    // from host memory; a SwapDrop discards a copy after a crash)
    KvAlloc, KvGrow, KvRelease, SwapOut, SwapIn, SwapDrop,
    // hw::Channel and hw::SharedChannel
    XferSubmit, XferAppend, XferComplete,
    // engine::Instance: a decode group about to start a pass (its
    // clock view), passes starting, a prompt joining a chunked-prefill
    // lane, the wipe after a crash
    GroupCheck, PrefillPass, SbdPass, DecodePass, ChunkAdmit, Wiped,
    // any component that changes a request's state
    Transition,
    // transfer::MigrationManager and transfer::BackupManager
    Migrated, MigrateAbort, BackedUp,
    // core::Coordinator (Algorithm 1, rescheduling deliberations),
    // core::Pod (backup-aware re-dispatch) and ctrl::ControlPlane (a
    // replica won an election: the first leader or a failover)
    Dispatch, Reschedule, Redispatch, Failover, Commit, Apply,
    // fault::FaultInjector; Abort: a victim ran out of retries
    InstanceDown, InstanceUp, LinkDown, LinkUp, StragglerBegin,
    StragglerEnd, Abort, Recovered,
};

inline constexpr std::size_t kNumProbeKinds =
    static_cast<std::size_t>(ProbeKind::Recovered) + 1;

/** Stable name of @p k ("kv-alloc", "dispatch", ...). */
const char *to_cstring(ProbeKind k);

/** One bit per ProbeKind: a subscriber's interests. */
using KindMask = std::uint64_t;
static_assert(kNumProbeKinds <= 64, "KindMask holds one bit per kind");

constexpr KindMask
kind_bit(ProbeKind k)
{
    return KindMask{1} << static_cast<unsigned>(k);
}

constexpr KindMask
kinds_of(std::initializer_list<ProbeKind> ks)
{
    KindMask m = 0;
    for (ProbeKind k : ks)
        m |= kind_bit(k);
    return m;
}

inline constexpr KindMask kAllKinds =
    (KindMask{1} << kNumProbeKinds) - 1;

/** Row index in the owner table. */
using OwnerId = std::uint32_t;
inline constexpr OwnerId kNoOwner = 0xffffffffu;

/** One owner-table row. */
struct Owner {
    std::string name;    ///< audit name: ledger key, violation text
    std::string process; ///< trace process
    std::string track;   ///< trace track ("" when the kind picks it)
};

// ---------------------------------------------------------------------
// payloads, one per family of kinds
// ---------------------------------------------------------------------

/** KvAlloc / KvGrow / KvRelease: the request's tokens and blocks after
 *  alloc/grow (release: the blocks freed), whether the operation
 *  changes the manager (release: the id was held), and the manager's
 *  used blocks before it and capacity. */
struct KvOp {
    std::size_t tokens = 0, blocks = 0;
    bool applied = false;
    std::size_t used = 0, total = 0;
};

/** SwapOut / SwapIn / SwapDrop: the bytes moved, whether the pool changes
 *  (accepted, or the id was resident), whether a swap-out found the id
 *  resident already, and the pool's bytes before it and capacity. */
struct PoolOp {
    std::size_t tokens = 0;
    double bytes = 0.0;
    bool applied = false, held = false;
    double used = 0.0, capacity = 0.0;
};

/** XferSubmit / XferAppend / XferComplete (the record id is the
 *  channel's transfer id): bytes submitted, appended or delivered;
 *  whether an appended transfer is still open; a completion's link
 *  occupancy interval and the link it crossed. */
struct LinkOp {
    double bytes = 0.0;
    bool open = true;
    double begun = 0.0, end = 0.0, bandwidth = 0.0, latency = 0.0;
};

/**
 * One decode-group member as its group's token clock holds it at a pass
 * start (engine::DecodeGroup::audit_view fills these; DESIGN.md §15).
 */
struct DecodeMemberClock {
    const workload::Request *req = nullptr;
    /** Tokens it had before its start pass. */
    std::size_t base = 0;
    /** First pass it earns a token at; 0 if no pass started with it. */
    std::uint64_t start = 0;
    /** Last settled pass whose token the clock's view gives it. */
    std::uint64_t through = 0;
    /** Token count the group serves for it. */
    std::size_t generated = 0;
    /** Cached passes of its next KV block crossing and of its finish. */
    std::uint64_t cross = 0;
    std::uint64_t finish = 0;
    /** Tokens its KV blocks hold, per the instance's BlockManager. */
    std::size_t kv_tokens = 0;
};

/** GroupCheck: the clock view (the expensive payload) and the group's
 *  cached context sum. */
struct GroupView {
    std::uint32_t group = 0;
    const std::vector<DecodeMemberClock> *members = nullptr;
    std::size_t cached_sum = 0;
};

/** Transition, reported before the state is assigned. */
struct StateChange {
    workload::Request *req = nullptr;
    workload::RequestState to = workload::RequestState::Created;
};

/** PrefillPass / SbdPass / DecodePass: the prefill slot or decode group,
 *  a decode pass's mode, the duration, the batch members, the prefill
 *  tokens (a decode pass: the members' summed context) and a decode
 *  pass's chunked-prefill and hybrid-assist tokens. */
struct Pass {
    std::size_t lane = 0;
    const char *mode = "";
    double dur = 0.0;
    std::size_t requests = 0, tokens = 0, chunk_tokens = 0,
                assist_tokens = 0;
};

/** ChunkAdmit: the prompt tokens. */
struct Tokens {
    std::size_t tokens = 0;
};

/** Wiped: the blocks and host-pool bytes a crash left (must be 0). */
struct Wipe {
    std::size_t kv_used = 0;
    double pool_used = 0.0;
};

/** Migrated / MigrateAbort / BackedUp: when the copy began and the
 *  context it copied (a MigrateAbort knows it only on refusal). */
struct KvCopy {
    double started = 0.0;
    std::size_t ctx = 0;
    bool has_ctx = true;
};

/** InstanceDown (repair seconds), LinkDown (rate factor),
 *  StragglerBegin (slowdown), Recovered (latency seconds). */
struct FaultOp {
    double value = 0.0;
};

/** Dispatch: the outcome and both candidates' evidence — the prefill
 *  side's predicted TTFT against thrd with its load, the decode side's
 *  available slots against the prompt. */
struct DispatchOp {
    bool to_decode = false;
    const char *reason = "";
    std::size_t prompt_tokens = 0, slots = 0;
    double predicted_ttft = 0.0, thrd = 0.0, queued_tokens = 0.0,
           inflight_remaining = 0.0;
};

/** Reschedule: whether a migration started, why (not), and the decode
 *  occupancy against its trigger with the migration load. */
struct RescheduleOp {
    bool started = false;
    const char *reason = "";
    double occupancy = 0.0, trigger = 0.0;
    std::size_t active_migrations = 0, migrated_resident = 0,
                victim_ctx = 0;
};

/** Redispatch: whether a surviving backup lets the victim resume. */
struct RedispatchOp {
    bool resumable = false;
    std::size_t backed_up_tokens = 0, prompt_tokens = 0;
    bool prefill_up = true;
};

/** One control replica as an election found it. */
struct ReplicaView {
    bool alive = true;
    std::uint64_t term = 0;
};

/** Failover: the winner, its term, whether it is the run's first
 *  election, and every replica (built only when Failover is wanted). */
struct ElectionOp {
    std::size_t replica = 0;
    std::uint64_t term = 0;
    bool initial = false;
    const std::vector<ReplicaView> *replicas = nullptr;
};

/** Commit / Apply: the log index (Commit), the entry's term and its
 *  intent's sequence number. */
struct LogOp {
    std::size_t index = 0;
    std::uint64_t term = 0, seq = 0;
};

using Payload =
    std::variant<std::monostate, KvOp, PoolOp, LinkOp, GroupView,
                 StateChange, Pass, Tokens, Wipe, KvCopy, FaultOp,
                 DispatchOp, RescheduleOp, RedispatchOp, ElectionOp, LogOp>;

/** One reported fact. */
struct Record {
    ProbeKind kind{};
    OwnerId owner = kNoOwner;
    /** The request it is about (a channel's transfer id for Xfer*,
     *  0 when none). */
    std::uint64_t id = 0;
    Payload data;

    template <typename P> const P &as() const { return std::get<P>(data); }
};

/** A consumer of the stream (auditor, trace recorder, journal, ...). */
class Subscriber
{
  public:
    virtual ~Subscriber() = default;
    /** One record of a kind this subscriber subscribed to. */
    virtual void on_record(const Record &r) = 0;
};

/** See file comment. */
class Probe
{
  public:
    Probe() = default;
    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    /** The row (@p name, @p process, @p track), added on first use:
     *  an identical row always maps to the same id. */
    OwnerId add_owner(const std::string &name, const std::string &process,
                      const std::string &track = {});
    const Owner &owner(OwnerId id) const { return owners_[id]; }
    std::size_t num_owners() const { return owners_.size(); }

    /** Deliver records of @p kinds to @p s, after every earlier
     *  subscriber. Subscribing twice is a no-op. */
    void subscribe(Subscriber &s, KindMask kinds);
    std::size_t num_subscribers() const { return subs_.size(); }

    /** True when some subscriber takes @p k. */
    bool wants(ProbeKind k) const { return (mask_ & kind_bit(k)) != 0; }

    /** Report one fact; dropped unless some subscriber wants @p k. */
    template <typename P>
    void emit(ProbeKind k, OwnerId owner, std::uint64_t id,
              const P &payload) const
    {
        if (wants(k))
            publish(Record{k, owner, id, Payload(payload)});
    }

  private:
    void publish(const Record &r) const;

    std::vector<Owner> owners_;
    std::unordered_map<std::string, OwnerId> owner_by_key_;
    std::vector<std::pair<Subscriber *, KindMask>> subs_;
    KindMask mask_ = 0;
};

/**
 * Change @p r 's state to @p to, reporting the edge to @p p first when
 * one is attached (a subscriber that validates it sees the old state
 * and may throw before the assignment). One pointer test when off.
 */
inline void
transition(const Probe *p, workload::Request &r, workload::RequestState to)
{
    if (p)
        p->emit(ProbeKind::Transition, kNoOwner, r.id, StateChange{&r, to});
    r.state = to;
}

} // namespace windserve::obs
