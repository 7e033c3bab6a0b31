/**
 * @file
 * Batch containers used by the per-instance execution engine.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/request.hpp"

namespace windserve::kvcache {
class BlockManager;
}
namespace windserve::audit {
struct DecodeMemberClock;
}

namespace windserve::engine {

using workload::Request;

/** A set of requests prefilled together in one forward pass. */
struct PrefillBatch {
    std::vector<Request *> requests;
    /** Sum of prompt tokens still to process across the batch. */
    std::size_t total_tokens = 0;
    /** Simulated completion time, once scheduled. */
    double expected_end = 0.0;
    /** Time the batch started executing. */
    double started = 0.0;

    bool empty() const { return requests.empty(); }
    std::size_t size() const { return requests.size(); }
};

class DecodeGroup;

/**
 * Set @p r 's emitted-token count to @p n. A running request must name
 * its @p group, whose clock and context sum move with it; passing none
 * (or the wrong group) for a running request throws std::logic_error.
 */
void set_generated(Request &r, std::size_t n, DecodeGroup *group = nullptr);

/**
 * A request's decode progress. For a running member it is its group
 * clock's view; the Request's own fields catch up only when it leaves
 * the group (or at run end), so mid-run readers of a running request
 * go through Instance::progress().
 */
struct Progress {
    std::size_t prompt_tokens = 0;
    std::size_t generated = 0;
    double last_token_time = workload::kNoTime;
    double max_token_gap = 0.0;

    std::size_t context_length() const { return prompt_tokens + generated; }
};

/** The progress a request in no decode group carries in its fields. */
Progress progress_of(const Request &r);

/**
 * One pipeline-parallel micro-batch group of decoding requests.
 *
 * With PP-k an instance runs k groups concurrently: each group's pass
 * traverses all pipeline stages, so per-iteration latency matches the
 * full model while aggregate decode throughput scales with k.
 *
 * The group is a token clock (DESIGN.md §15): it counts its
 * token-yielding passes, and a member's progress is derived from the
 * pass it started earning at. Per pass, only members with something to
 * do are visited: those that joined since the last pass start, those
 * that finish, and those whose context crosses a KV block boundary.
 * Membership is the request's `decode_group` tag; sum_context() is an
 * exact running integer sum. Groups are neither copyable nor movable:
 * a copy would share the id.
 */
class DecodeGroup
{
  public:
    /** A member with work at the settling pass. */
    struct Event {
        Request *req = nullptr;
        /** Context after this pass's token. */
        std::size_t context = 0;
        /** It generated its last token; otherwise its KV must grow. */
        bool finish = false;

        explicit operator bool() const { return req != nullptr; }
    };

    /** BackupManager's per-member cache of "has a backup (or one in
     *  flight)"; Unknown until it first asks. */
    enum class BackupMark : std::uint8_t { Unknown, None, Held };

    DecodeGroup();
    DecodeGroup(const DecodeGroup &) = delete;
    DecodeGroup &operator=(const DecodeGroup &) = delete;

    bool busy = false;
    /** Completion time of the in-flight iteration (valid while busy). */
    double iteration_end = 0.0;

    // ------------------------------------------------------------------
    // membership
    // ------------------------------------------------------------------

    /** Running requests, in admission order. */
    const std::vector<Request *> &members() const { return members_; }
    std::size_t size() const { return members_.size(); }
    /** Sum of current context lengths (the Eq. 2 sumL). */
    std::size_t sum_context() const;
    /** Value this group writes into Request::decode_group. */
    std::uint32_t id() const { return id_; }

    bool contains(const Request *r) const { return r->decode_group == id_; }
    /** Admit @p r; throws std::logic_error if it is in any group. */
    void add(Request *r);
    /** Remove a request, writing its progress back into it.
     *  @return true if it was present. */
    bool remove(Request *r);
    /** Drop every member (instance crash), writing each one's progress
     *  back, and reset the pass state. */
    void clear();
    /** Write every member's progress back without removing it (run
     *  end: results are read from the requests). */
    void write_back();

    /** Position of @p r in members(); size() if it is not a member. */
    std::size_t index_of(const Request *r) const;
    /** Progress of members()[i] as of now. */
    Progress progress(std::size_t i) const;
    /** Context length of members()[i] as of now. */
    std::size_t context_length(std::size_t i) const;

    // ------------------------------------------------------------------
    // the token clock
    // ------------------------------------------------------------------

    /** Token-yielding passes settled so far. */
    std::uint64_t passes() const { return passes_; }

    /**
     * A pass starts: the members that joined since the last start earn
     * from the next settled pass on. Their next KV block crossing is
     * derived from the blocks they hold in @p blocks. @return the
     * position in members() of the first such joiner; the joiners are
     * members() from there to the end.
     */
    std::size_t begin_pass(const kvcache::BlockManager &blocks);

    /**
     * The in-flight pass completed at @p now: apply its token. A pass
     * started before the previous pass settled handed its members to
     * that settle, so it yields no token and this is a no-op. Tokens
     * apply in admission order as next_event() walks the members, so a
     * callback fired from an event sees the members before it with the
     * token and those after it without, as in a member-by-member loop.
     */
    void begin_settle(double now);
    /** The next member, in admission order, that finishes or crosses a
     *  block boundary at the settling pass; a false Event when none is
     *  left. A crossing member must end in set_kv_capacity() or leave. */
    Event next_event();
    /** Apply the token to every member next_event() did not reach. */
    void end_settle();
    /** The blocks of running member @p r now hold @p tokens tokens. */
    void set_kv_capacity(const Request *r, std::size_t tokens);

    // ------------------------------------------------------------------
    // backup marks and audit
    // ------------------------------------------------------------------

    BackupMark backup_mark(std::size_t i) const { return hot_[i].backup; }
    void set_backup_mark(std::size_t i, BackupMark m) { hot_[i].backup = m; }
    /** Forget every mark (the backups were wiped). */
    void reset_backup_marks();

    /**
     * Call @p fn(i, ctx) for each member, in admission order, whose
     * context is at least @p floor; fn may raise @p floor. Outside a
     * settle this reads one dense key per member, not its slot, so a
     * longest-context search costs little more than its candidates.
     */
    template <class Fn>
    void scan_contexts(std::size_t &floor, Fn &&fn) const
    {
        for (std::size_t i = 0; i < hot_.size(); ++i) {
            std::size_t c = settling_ ? context_length(i) : hot_context(i);
            if (c >= floor)
                fn(i, c);
        }
    }

    /** Fill @p out with each member's clock state for the auditor,
     *  reading the blocks each one holds in @p blocks. */
    void audit_view(const kvcache::BlockManager &blocks,
                    std::vector<audit::DecodeMemberClock> &out) const;

  private:
    friend void set_generated(Request &r, std::size_t n, DecodeGroup *group);

    static constexpr std::uint64_t kNoPass = ~std::uint64_t{0};

    /** A member's running state; slots_ is parallel to members_. */
    struct Slot {
        std::uint64_t start = 0;   ///< first pass it earns at; 0 = not yet
        std::uint64_t event = kNoPass;  ///< pass of its queued event
        std::uint64_t cross = kNoPass;  ///< pass its context outgrows kv
        std::uint64_t finish = kNoPass; ///< pass of its last token
        std::size_t prompt = 0;
        std::size_t base = 0;      ///< tokens before `start`
        std::size_t kv = 0;        ///< tokens its blocks hold
        double t0 = workload::kNoTime; ///< last token time before `start`
        /** Largest gap before `start`, plus the first gap once the
         *  start pass settled. */
        double gap = 0.0;
        bool first_pending = false; ///< start pass not settled yet
    };
    /** The per-member fields searches read, kept dense. */
    struct Hot {
        std::uint64_t seq = 0; ///< admission number in this group
        /** Context outside a settle is key, plus passes_ once started:
         *  prompt + base + 1 - start for a started member. */
        std::uint64_t key = 0;
        bool started = false;
        BackupMark backup = BackupMark::Unknown;
    };
    /** A queued event of the member admitted as `seq`. */
    struct Entry {
        std::uint64_t pass;
        std::uint64_t seq;
    };
    /** Passes the event calendar covers; later events wait in far_. */
    static constexpr std::uint64_t kRing = 32;
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    /** A calendar entry, linked into its pass's bucket. */
    struct Node {
        Entry e;
        std::uint32_t next;
    };
    /** One settled pass's gap to the previous one. */
    struct Gap {
        std::uint64_t pass;
        double gap;
    };

    /** Last settled pass whose token members()[i] holds (0 if none). */
    std::uint64_t through(std::size_t i) const;
    /** Largest pass gap over passes [a, b], b the current or previous
     *  settled pass. */
    double gap_max(std::uint64_t a, std::uint64_t b) const;
    /** Position of the first member admitted as @p seq or later. */
    std::size_t lower_seq(std::uint64_t seq) const;
    /** Context of members()[i] outside a settle. */
    std::size_t hot_context(std::size_t i) const
    {
        return hot_[i].key + (hot_[i].started ? passes_ : 0);
    }
    /** Recompute members()[i]'s dense key from its slot. */
    void refresh_key(std::size_t i);
    /** Recompute members()[i]'s crossing and finish passes and queue
     *  its next event. */
    void schedule(std::size_t i);
    /** Link @p e into its pass's calendar bucket. */
    void enqueue(const Entry &e);
    void write_back(std::size_t i) const;
    void reset_clock_state();

    // Parallel arrays in admission order: the requests, their dense
    // search fields and their slots.
    std::vector<Request *> members_;
    std::vector<Hot> hot_;
    std::vector<Slot> slots_;
    /** The context sum, except that while settling no member holds the
     *  settling pass's token yet (sum_context() adds the reached ones). */
    std::size_t sum_context_ = 0;
    std::uint32_t id_;

    std::uint64_t next_seq_ = 1;
    /** Members with seq below this have a start pass. */
    std::uint64_t started_end_ = 1;
    std::uint64_t passes_ = 0;
    /** A started pass's members wait for a settle. */
    bool snapshot_pending_ = false;
    bool settling_ = false;
    /** While settling: members with seq in [cursor_, settle_end_) still
     *  lack the settling pass's token. */
    std::uint64_t cursor_ = 0;
    std::uint64_t settle_end_ = 0;
    /** Position of the member next_event() last returned. */
    std::size_t current_ = 0;
    double end_last_ = 0.0; ///< time the last settled pass ended
    double end_prev_ = 0.0; ///< and the one before it
    double gap_now_ = 0.0;  ///< end_last_ - end_prev_ while settling
    /** Event calendar: ring_[p % kRing] heads the list (in nodes_) of
     *  the events of pass p for p in [passes_, passes_ + kRing); far_
     *  is a min-heap of the rest. One node pool per group keeps the
     *  calendar's memory at a few entries per member. */
    std::vector<std::uint32_t> ring_; ///< sized on first use
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;
    std::vector<Entry> far_;
    /** The settling pass's events, in admission order, and the next. */
    std::vector<Entry> due_;
    std::size_t due_pos_ = 0;
    /** Suffix maxima of settled pass gaps: passes ascend, gaps strictly
     *  descend; live entries start at gaps_head_. */
    std::vector<Gap> gaps_;
    std::size_t gaps_head_ = 0;
};

/** Sum of prompt tokens over a span of requests. */
std::size_t total_prompt_tokens(const std::vector<Request *> &requests);

} // namespace windserve::engine
