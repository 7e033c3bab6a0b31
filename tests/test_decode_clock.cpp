/**
 * @file
 * Property tests of the decode-group token clock: random joins,
 * leaves, finishes, swap-outs, exhaustion preemptions, migration
 * pauses and re-entrant pass starts, checked against a reference that
 * steps every member of every pass the way a member-by-member loop
 * does (token, ITL gap, finish check, KV grow).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "engine/batch.hpp"
#include "kvcache/block_manager.hpp"

namespace eng = windserve::engine;
namespace kv = windserve::kvcache;
namespace wl = windserve::workload;

namespace {

/** The reference's copy of one request's progress. */
struct RefState {
    std::size_t generated = 0;
    double last = wl::kNoTime;
    double gap = 0.0;
    /** Bumped on every join: a snapshot entry of an older join is not
     *  the member that rejoined. */
    std::uint64_t joins = 0;
    bool in_group = false;
};

class ClockHarness
{
  public:
    explicit ClockHarness(std::uint64_t seed, std::size_t blocks)
        : rng_(seed), sut_kv_(blocks, 4), ref_kv_(blocks, 4)
    {
        reqs_.reserve(kRequests);
        ref_.resize(kRequests);
        for (std::size_t i = 0; i < kRequests; ++i) {
            wl::Request r;
            r.id = i + 1;
            r.prompt_tokens = pick(1, 40);
            r.output_tokens = pick(2, 70);
            r.generated = 1;
            r.last_token_time = 0.0;
            reqs_.push_back(r);
            ref_[i].generated = 1;
            ref_[i].last = 0.0;
        }
    }

    void run(std::size_t steps)
    {
        for (std::size_t s = 0; s < steps; ++s) {
            switch (pick(0, 5)) {
              case 0:
              case 1:
                join_random();
                break;
              case 2:
                leave_random();
                break;
              default:
                pass();
                break;
            }
            compare_all("step");
            compare_kv();
            if (::testing::Test::HasFailure())
                return;
        }
        // Run end: every running member's progress is written back.
        grp_.write_back();
        for (wl::Request *r : grp_.members())
            compare_fields(*r);
    }

    std::size_t passes_settled() const { return grp_.passes(); }
    std::size_t events_seen() const { return events_; }

  private:
    static constexpr std::size_t kRequests = 48;

    std::size_t pick(std::size_t lo, std::size_t hi)
    {
        return std::uniform_int_distribution<std::size_t>(lo, hi)(rng_);
    }

    RefState &ref(const wl::Request &r) { return ref_[r.id - 1]; }

    std::size_t ctx(const wl::Request &r) const
    {
        return r.prompt_tokens + ref_[r.id - 1].generated;
    }

    // ---------------------------------------------------------------
    // membership (both sides)
    // ---------------------------------------------------------------

    void join_random()
    {
        std::vector<wl::Request *> out;
        for (auto &r : reqs_)
            if (!ref(r).in_group && ref(r).generated < r.output_tokens)
                out.push_back(&r);
        if (out.empty())
            return;
        join(out[pick(0, out.size() - 1)]);
    }

    void join(wl::Request *r)
    {
        if (!sut_kv_.holds(r->id)) {
            // Half the joiners arrive with the assist-prefill footprint:
            // KV for the prompt only, one token behind the context.
            std::size_t tokens = pick(0, 1) ? ctx(*r) : r->prompt_tokens;
            if (!sut_kv_.can_allocate(tokens))
                return;
            ASSERT_TRUE(sut_kv_.allocate(r->id, tokens));
            ASSERT_TRUE(ref_kv_.allocate(r->id, tokens));
        }
        grp_.add(r);
        RefState &st = ref(*r);
        st.in_group = true;
        ++st.joins;
        ref_members_.push_back(r);
    }

    /** @p r leaves (finish, swap-out, preemption or migration pause):
     *  its written-back fields must match the reference. */
    void leave(wl::Request *r, bool keep_kv)
    {
        ASSERT_TRUE(grp_.remove(r));
        compare_fields(*r);
        ref(*r).in_group = false;
        ref_members_.erase(
            std::find(ref_members_.begin(), ref_members_.end(), r));
        if (!keep_kv) {
            sut_kv_.release(r->id);
            ref_kv_.release(r->id);
        }
    }

    void leave_random()
    {
        if (ref_members_.empty())
            return;
        leave(ref_members_[pick(0, ref_members_.size() - 1)], pick(0, 1));
    }

    // ---------------------------------------------------------------
    // passes
    // ---------------------------------------------------------------

    void start_pass()
    {
        grp_.begin_pass(sut_kv_);
        snapshot_.clear();
        for (wl::Request *r : ref_members_)
            snapshot_.push_back({r, ref(*r).joins});
        have_snapshot_ = true;
    }

    /** One pass completion. A pass restarted from a callback is
     *  already in flight; otherwise one starts first. */
    void pass()
    {
        if (!restarted_)
            start_pass();
        restarted_ = false;
        // Churn while the pass is in flight.
        for (std::size_t k = pick(0, 2); k > 0; --k)
            pick(0, 1) ? join_random() : leave_random();
        // A pass started before this completion's token loop (a
        // callback restarting the group early) takes over the snapshot,
        // and its own completion then settles nothing.
        if (pick(0, 9) == 0) {
            start_pass();
            restarted_ = true;
        }
        now_ += 0.01 * static_cast<double>(pick(1, 50));
        settle();
    }

    /** The reference's member loop: the token for snapshot entry
     *  @p e, if its member still runs under the same join. @return
     *  true if the member got the token. */
    bool ref_token(const std::pair<wl::Request *, std::uint64_t> &e)
    {
        RefState &st = ref(*e.first);
        if (!st.in_group || st.joins != e.second)
            return false;
        ++st.generated;
        if (st.last != wl::kNoTime && now_ - st.last > st.gap)
            st.gap = now_ - st.last;
        st.last = now_;
        return true;
    }

    void settle()
    {
        grp_.begin_settle(now_);
        std::vector<std::pair<wl::Request *, std::uint64_t>> snap;
        if (have_snapshot_)
            snap.swap(snapshot_);
        have_snapshot_ = false;
        std::size_t pos = 0;
        while (eng::DecodeGroup::Event ev = grp_.next_event()) {
            ++events_;
            // Step the reference up to the event's member; every member
            // before it must have nothing to do at this pass.
            bool found = false;
            while (pos < snap.size() && !found) {
                auto e = snap[pos++];
                if (!ref_token(e))
                    continue;
                if (e.first == ev.req) {
                    found = true;
                    break;
                }
                ASSERT_LT(ref(*e.first).generated, e.first->output_tokens)
                    << "missed finish of " << e.first->id;
                ASSERT_TRUE(ref_kv_.grow(e.first->id, ctx(*e.first)));
                ASSERT_EQ(ref_kv_.blocks_of(e.first->id),
                          sut_kv_.blocks_of(e.first->id))
                    << "missed crossing of " << e.first->id;
            }
            ASSERT_TRUE(found) << "event for a non-participant";
            ASSERT_EQ(ev.context, ctx(*ev.req));
            compare_all("mid-settle");
            wl::Request *r = ev.req;
            if (ev.finish) {
                ASSERT_GE(ref(*r).generated, r->output_tokens);
                leave(r, false);
            } else {
                grow(r);
            }
            if (::testing::Test::HasFailure())
                return;
            callback_churn();
        }
        while (pos < snap.size()) {
            auto e = snap[pos++];
            if (!ref_token(e))
                continue;
            ASSERT_LT(ref(*e.first).generated, e.first->output_tokens);
            ASSERT_TRUE(ref_kv_.grow(e.first->id, ctx(*e.first)));
        }
        grp_.end_settle();
    }

    /** A crossing member grows its KV; on exhaustion it gives the token
     *  back and is preempted (its KV released). */
    void grow(wl::Request *r)
    {
        bool ok = sut_kv_.grow(r->id, ctx(*r));
        ASSERT_EQ(ok, ref_kv_.grow(r->id, ctx(*r)));
        if (ok) {
            grp_.set_kv_capacity(r, sut_kv_.blocks_of(r->id) * 4);
            return;
        }
        std::size_t gen = grp_.progress(grp_.index_of(r)).generated;
        eng::set_generated(*r, gen - 1, &grp_);
        --ref(*r).generated;
        leave(r, pick(0, 1)); // a migrating member keeps its KV
    }

    /** What a callback fired from an event may do: swap out another
     *  member, admit one, or restart the group mid-loop. */
    void callback_churn()
    {
        switch (pick(0, 7)) {
          case 0:
            leave_random();
            break;
          case 1:
            join_random();
            break;
          case 2:
            if (!restarted_) {
                start_pass();
                restarted_ = true;
            }
            break;
          default:
            break;
        }
    }

    // ---------------------------------------------------------------
    // comparisons
    // ---------------------------------------------------------------

    void compare_fields(const wl::Request &r)
    {
        const RefState &st = ref_[r.id - 1];
        EXPECT_EQ(r.generated, st.generated) << "req " << r.id;
        EXPECT_EQ(r.last_token_time, st.last) << "req " << r.id;
        EXPECT_EQ(r.max_token_gap, st.gap) << "req " << r.id;
    }

    void compare_all(const char *where)
    {
        std::size_t sum = 0;
        ASSERT_EQ(grp_.size(), ref_members_.size()) << where;
        for (std::size_t i = 0; i < grp_.size(); ++i) {
            const wl::Request &r = *grp_.members()[i];
            ASSERT_EQ(&r, ref_members_[i]) << where;
            eng::Progress p = grp_.progress(i);
            const RefState &st = ref_[r.id - 1];
            EXPECT_EQ(p.generated, st.generated) << where << " req " << r.id;
            EXPECT_EQ(p.last_token_time, st.last) << where << " req " << r.id;
            EXPECT_EQ(p.max_token_gap, st.gap) << where << " req " << r.id;
            EXPECT_EQ(grp_.context_length(i), ctx(r)) << where;
            sum += ctx(r);
        }
        EXPECT_EQ(grp_.sum_context(), sum) << where;
    }

    void compare_kv()
    {
        ASSERT_EQ(sut_kv_.used_blocks(), ref_kv_.used_blocks());
        ASSERT_EQ(sut_kv_.holders(), ref_kv_.holders());
        for (kv::ReqId id : ref_kv_.holders())
            ASSERT_EQ(sut_kv_.blocks_of(id), ref_kv_.blocks_of(id));
    }

    std::mt19937_64 rng_;
    std::vector<wl::Request> reqs_;
    std::vector<RefState> ref_;
    eng::DecodeGroup grp_;
    kv::BlockManager sut_kv_;
    kv::BlockManager ref_kv_;
    std::vector<wl::Request *> ref_members_;
    std::vector<std::pair<wl::Request *, std::uint64_t>> snapshot_;
    bool have_snapshot_ = false;
    bool restarted_ = false;
    double now_ = 0.0;
    std::size_t events_ = 0;
};

} // namespace

TEST(DecodeGroupClock, MatchesMemberSteppingReference)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        ClockHarness h(seed, 4096);
        h.run(400);
        ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
        EXPECT_GT(h.passes_settled(), 50u);
        EXPECT_GT(h.events_seen(), 50u);
    }
}

TEST(DecodeGroupClock, MatchesReferenceUnderKvExhaustion)
{
    // Few blocks: crossings fail, members give their token back and
    // leave mid-settle.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        ClockHarness h(seed, 40);
        h.run(400);
        ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    }
}

TEST(DecodeGroupClock, ClearWritesBackAndForgetsThePass)
{
    std::vector<wl::Request> reqs(2);
    reqs[0].id = 1;
    reqs[0].prompt_tokens = 10;
    reqs[0].output_tokens = 100;
    reqs[1].id = 2;
    reqs[1].prompt_tokens = 20;
    reqs[1].output_tokens = 100;
    kv::BlockManager bm(64, 16);
    eng::DecodeGroup g;
    for (auto &r : reqs) {
        bm.allocate(r.id, r.prompt_tokens);
        g.add(&r);
    }
    for (int pass = 1; pass <= 3; ++pass) {
        g.begin_pass(bm);
        g.begin_settle(0.5 * pass);
        while (g.next_event()) {
        }
        g.end_settle();
    }
    g.begin_pass(bm); // in flight when the instance crashes
    g.clear();
    for (const auto &r : reqs) {
        EXPECT_EQ(r.decode_group, wl::kNoDecodeGroup);
        EXPECT_EQ(r.generated, 3u);
        EXPECT_EQ(r.last_token_time, 1.5);
        EXPECT_EQ(r.max_token_gap, 0.5);
    }
    EXPECT_EQ(g.sum_context(), 0u);
}
