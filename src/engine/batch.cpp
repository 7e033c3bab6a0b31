#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "kvcache/block_manager.hpp"

namespace windserve::engine {

namespace {

/** Next group id. Atomic because sweeps build systems on several
 *  threads; the values never reach an output, only tag compares. */
std::atomic<std::uint32_t> next_group_id{workload::kNoDecodeGroup + 1};

/** Tokens until a context of @p ctx first exceeds @p kv tokens of KV
 *  (at least one: the next token). */
std::uint64_t
tokens_until_crossing(std::size_t ctx, std::size_t kv)
{
    return ctx >= kv ? 1 : kv - ctx + 1;
}

/** Tokens until a count of @p gen first reaches @p output (at least
 *  one: a member earns a token before its finish check). */
std::uint64_t
tokens_until_finish(std::size_t gen, std::size_t output)
{
    return gen + 1 >= output ? 1 : output - gen;
}

/** Heap order of queued events: smallest (pass, seq) on top. */
struct Later {
    template <class E>
    bool operator()(const E &a, const E &b) const
    {
        return a.pass != b.pass ? a.pass > b.pass : a.seq > b.seq;
    }
};

} // namespace

Progress
progress_of(const Request &r)
{
    return Progress{r.prompt_tokens, r.generated, r.last_token_time,
                    r.max_token_gap};
}

DecodeGroup::DecodeGroup()
    : id_(next_group_id.fetch_add(1))
{
    if (id_ == workload::kNoDecodeGroup) // wrapped after 2^32 groups
        id_ = next_group_id.fetch_add(1);
}

// ---------------------------------------------------------------------
// membership
// ---------------------------------------------------------------------

std::size_t
DecodeGroup::sum_context() const
{
    // Members the settle has reached hold its token.
    return settling_ ? sum_context_ + lower_seq(cursor_) : sum_context_;
}

void
DecodeGroup::add(Request *r)
{
    if (r->decode_group != workload::kNoDecodeGroup)
        throw std::logic_error("DecodeGroup::add: request already in a "
                               "decode group");
    r->decode_group = id_;
    Slot s;
    s.prompt = r->prompt_tokens;
    s.base = r->generated;
    s.t0 = r->last_token_time;
    s.gap = r->max_token_gap;
    members_.push_back(r);
    hot_.push_back(Hot{next_seq_++, s.prompt + s.base});
    slots_.push_back(s);
    sum_context_ += r->context_length();
}

bool
DecodeGroup::remove(Request *r)
{
    if (!contains(r))
        return false;
    std::size_t i = index_of(r);
    std::size_t ctx = context_length(i);
    if (settling_ && hot_[i].seq < cursor_)
        --ctx; // its settling token is not in sum_context_ yet
    sum_context_ -= ctx;
    r->decode_group = workload::kNoDecodeGroup;
    write_back(i);
    auto at = [i](auto &v) {
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    };
    at(members_);
    at(hot_);
    at(slots_);
    if (i < current_)
        --current_;
    return true;
}

void
DecodeGroup::clear()
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        members_[i]->decode_group = workload::kNoDecodeGroup;
        write_back(i);
    }
    members_.clear();
    hot_.clear();
    slots_.clear();
    sum_context_ = 0;
    busy = false;
    reset_clock_state();
}

void
DecodeGroup::reset_clock_state()
{
    started_end_ = next_seq_;
    snapshot_pending_ = false;
    settling_ = false;
    std::fill(ring_.begin(), ring_.end(), kNil);
    nodes_.clear();
    free_ = kNil;
    far_.clear();
    due_.clear();
    due_pos_ = 0;
    gaps_.clear();
    gaps_head_ = 0;
}

void
DecodeGroup::write_back()
{
    for (std::size_t i = 0; i < slots_.size(); ++i)
        write_back(i);
}

void
DecodeGroup::write_back(std::size_t i) const
{
    Progress p = progress(i);
    Request &r = *members_[i];
    // Only the tag decides whether set_generated treats the request as
    // running, so write the count with the tag cleared.
    std::uint32_t tag = r.decode_group;
    r.decode_group = workload::kNoDecodeGroup;
    set_generated(r, p.generated);
    r.decode_group = tag;
    r.last_token_time = p.last_token_time;
    r.max_token_gap = p.max_token_gap;
}

std::size_t
DecodeGroup::index_of(const Request *r) const
{
    return static_cast<std::size_t>(
        std::find(members_.begin(), members_.end(), r) - members_.begin());
}

std::size_t
DecodeGroup::lower_seq(std::uint64_t seq) const
{
    return static_cast<std::size_t>(
        std::lower_bound(hot_.begin(), hot_.end(), seq,
                         [](const Hot &h, std::uint64_t v) {
                             return h.seq < v;
                         }) -
        hot_.begin());
}

void
DecodeGroup::refresh_key(std::size_t i)
{
    const Slot &s = slots_[i];
    hot_[i].started = s.start != 0;
    hot_[i].key = s.prompt + s.base + (s.start != 0 ? 1 - s.start : 0);
}

// ---------------------------------------------------------------------
// the derived view
// ---------------------------------------------------------------------

std::uint64_t
DecodeGroup::through(std::size_t i) const
{
    if (slots_[i].start == 0)
        return 0;
    std::uint64_t last = passes_;
    if (settling_ && hot_[i].seq >= cursor_ && hot_[i].seq < settle_end_)
        --last; // the settle has not reached it yet
    return last;
}

Progress
DecodeGroup::progress(std::size_t i) const
{
    const Slot &s = slots_[i];
    Progress p{s.prompt, s.base, s.t0, s.gap};
    std::uint64_t last = through(i);
    if (s.start == 0 || last < s.start)
        return p;
    p.generated += last - s.start + 1;
    p.last_token_time = last == passes_ ? end_last_ : end_prev_;
    if (last > s.start)
        p.max_token_gap = std::max(p.max_token_gap,
                                   gap_max(s.start + 1, last));
    return p;
}

std::size_t
DecodeGroup::context_length(std::size_t i) const
{
    const Slot &s = slots_[i];
    std::uint64_t last = through(i);
    std::size_t earned =
        s.start == 0 || last < s.start ? 0 : last - s.start + 1;
    return s.prompt + s.base + earned;
}

double
DecodeGroup::gap_max(std::uint64_t a, std::uint64_t b) const
{
    // While settling, the settling pass's gap is not on the stack yet.
    double g = 0.0;
    std::uint64_t top = settling_ ? passes_ - 1 : passes_;
    if (b > top) {
        g = gap_now_;
        b = top;
    }
    if (a <= b) {
        auto it = std::lower_bound(
            gaps_.begin() + static_cast<std::ptrdiff_t>(gaps_head_),
            gaps_.end(), a,
            [](const Gap &e, std::uint64_t v) { return e.pass < v; });
        g = std::max(g, it->gap);
    }
    return g;
}

// ---------------------------------------------------------------------
// the clock
// ---------------------------------------------------------------------

void
DecodeGroup::schedule(std::size_t i)
{
    Slot &s = slots_[i];
    std::uint64_t last = std::max(through(i), s.start - 1);
    std::size_t gen = s.base + (last - (s.start - 1));
    s.cross = last + tokens_until_crossing(s.prompt + gen, s.kv);
    s.finish = last + tokens_until_finish(gen, members_[i]->output_tokens);
    std::uint64_t ev = std::min(s.cross, s.finish);
    if (s.first_pending)
        ev = std::min(ev, s.start);
    if (ev == s.event)
        return;
    s.event = ev;
    if (ev - passes_ < kRing) {
        enqueue(Entry{ev, hot_[i].seq});
    } else {
        far_.push_back(Entry{ev, hot_[i].seq});
        std::push_heap(far_.begin(), far_.end(), Later{});
    }
}

void
DecodeGroup::enqueue(const Entry &e)
{
    std::uint32_t n = free_;
    if (n == kNil) {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{});
    } else {
        free_ = nodes_[n].next;
    }
    if (ring_.empty())
        ring_.assign(kRing, kNil);
    std::uint32_t &head = ring_[e.pass % kRing];
    nodes_[n] = Node{e, head};
    head = n;
}

std::size_t
DecodeGroup::begin_pass(const kvcache::BlockManager &blocks)
{
    std::size_t first = lower_seq(started_end_);
    for (std::size_t i = first; i < slots_.size(); ++i) {
        Slot &s = slots_[i];
        s.start = passes_ + 1;
        s.first_pending = true;
        s.kv = blocks.blocks_of(members_[i]->id) * blocks.block_size();
        refresh_key(i);
        schedule(i);
    }
    started_end_ = next_seq_;
    snapshot_pending_ = true;
    return first;
}

void
DecodeGroup::begin_settle(double now)
{
    if (!snapshot_pending_)
        return; // this pass's members were settled by the previous one
    snapshot_pending_ = false;
    ++passes_;
    gap_now_ = passes_ > 1 ? now - end_last_ : 0.0;
    end_prev_ = end_last_;
    end_last_ = now;
    settling_ = true;
    cursor_ = 0;
    settle_end_ = started_end_;
    // Events now within the ring's reach move in; this pass's bucket
    // becomes the due list, in admission order.
    while (!far_.empty() && far_.front().pass < passes_ + kRing) {
        Entry e = far_.front();
        std::pop_heap(far_.begin(), far_.end(), Later{});
        far_.pop_back();
        enqueue(e);
    }
    due_.clear();
    std::uint32_t empty = kNil;
    std::uint32_t &head = ring_.empty() ? empty : ring_[passes_ % kRing];
    while (head != kNil) {
        std::uint32_t n = head;
        due_.push_back(nodes_[n].e);
        head = nodes_[n].next;
        nodes_[n].next = free_;
        free_ = n;
    }
    std::sort(due_.begin(), due_.end(),
              [](const Entry &a, const Entry &b) { return a.seq < b.seq; });
    due_pos_ = 0;
    current_ = 0;
}

DecodeGroup::Event
DecodeGroup::next_event()
{
    while (settling_ && due_pos_ < due_.size()) {
        Entry e = due_[due_pos_++];
        // Due events ascend in seq, so walk on from the last one (a
        // member that left since may have shifted it down).
        std::size_t i = std::min(current_, hot_.size());
        while (i > 0 && hot_[i - 1].seq >= e.seq)
            --i;
        while (i < hot_.size() && hot_[i].seq < e.seq)
            ++i;
        if (i == hot_.size() || hot_[i].seq != e.seq ||
            slots_[i].event != e.pass)
            continue; // it left, or its event moved
        cursor_ = e.seq + 1;
        current_ = i;
        Slot &s = slots_[i];
        s.event = kNoPass;
        if (s.first_pending && s.start == passes_) {
            s.first_pending = false;
            if (s.t0 != workload::kNoTime)
                s.gap = std::max(s.gap, end_last_ - s.t0);
        }
        std::size_t ctx = context_length(i);
        if (s.finish == passes_)
            return Event{members_[i], ctx, true};
        if (s.cross == passes_)
            return Event{members_[i], ctx, false};
        schedule(i);
    }
    return Event{};
}

void
DecodeGroup::end_settle()
{
    if (!settling_)
        return;
    sum_context_ += lower_seq(settle_end_); // every participant's token
    settling_ = false;
    // Push this pass's gap onto the suffix-maximum stack, then drop the
    // passes no member can ask about: every query starts after its
    // member's start pass, and the first member started first.
    while (gaps_.size() > gaps_head_ && gaps_.back().gap <= gap_now_)
        gaps_.pop_back();
    gaps_.push_back(Gap{passes_, gap_now_});
    std::uint64_t keep_from =
        slots_.empty() || slots_.front().start == 0
            ? passes_ + 1
            : slots_.front().start + 1;
    while (gaps_head_ < gaps_.size() - 1 &&
           gaps_[gaps_head_].pass < keep_from)
        ++gaps_head_;
    if (gaps_head_ > 64 && 2 * gaps_head_ > gaps_.size()) {
        gaps_.erase(gaps_.begin(),
                    gaps_.begin() + static_cast<std::ptrdiff_t>(gaps_head_));
        gaps_head_ = 0;
    }
}

void
DecodeGroup::set_kv_capacity(const Request *r, std::size_t tokens)
{
    std::size_t i = current_ < members_.size() && members_[current_] == r
                        ? current_
                        : index_of(r);
    if (i == slots_.size())
        throw std::logic_error("DecodeGroup::set_kv_capacity: not a member");
    slots_[i].kv = tokens;
    schedule(i);
}

void
DecodeGroup::reset_backup_marks()
{
    for (Hot &h : hot_)
        h.backup = BackupMark::Unknown;
}

void
DecodeGroup::audit_view(const kvcache::BlockManager &blocks,
                        std::vector<audit::DecodeMemberClock> &out) const
{
    out.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const Slot &s = slots_[i];
        audit::DecodeMemberClock m;
        m.req = members_[i];
        m.base = s.base;
        m.start = s.start;
        m.through = through(i);
        m.generated = progress(i).generated;
        m.cross = s.cross;
        m.finish = s.finish;
        m.kv_tokens = blocks.blocks_of(members_[i]->id) * blocks.block_size();
        out.push_back(m);
    }
}

void
set_generated(Request &r, std::size_t n, DecodeGroup *group)
{
    if (group ? !group->contains(&r)
              : r.decode_group != workload::kNoDecodeGroup)
        throw std::logic_error("set_generated: group does not match the "
                               "request's decode-group tag");
    if (group) {
        std::size_t i = group->index_of(&r);
        DecodeGroup::Slot &s = group->slots_[i];
        std::size_t now = group->progress(i).generated;
        group->sum_context_ = group->sum_context_ - now + n;
        s.base = s.base - now + n;
        group->refresh_key(i);
        if (s.start != 0)
            group->schedule(i);
    }
    r.generated = n;
}

std::size_t
total_prompt_tokens(const std::vector<Request *> &requests)
{
    std::size_t sum = 0;
    for (const Request *r : requests)
        sum += r->prompt_tokens;
    return sum;
}

} // namespace windserve::engine
