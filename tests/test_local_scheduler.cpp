/**
 * @file
 * Unit tests for the FCFS local scheduling policies.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/local_scheduler.hpp"

namespace eng = windserve::engine;
namespace kv = windserve::kvcache;
namespace wl = windserve::workload;

namespace {

std::vector<wl::Request>
make_requests(std::initializer_list<std::size_t> prompts)
{
    std::vector<wl::Request> out;
    std::size_t id = 0;
    for (auto p : prompts) {
        wl::Request r;
        r.id = id;
        r.arrival_time = static_cast<double>(id);
        ++id;
        r.prompt_tokens = p;
        r.output_tokens = 10;
        out.push_back(r);
    }
    return out;
}

std::deque<wl::Request *>
queue_of(std::vector<wl::Request> &reqs)
{
    std::deque<wl::Request *> q;
    for (auto &r : reqs)
        q.push_back(&r);
    return q;
}

} // namespace

TEST(PrefillBatchFormation, RespectsTokenBudget)
{
    auto reqs = make_requests({300, 300, 300, 300});
    auto q = queue_of(reqs);
    kv::BlockManager bm(1000, 16);
    auto batch = eng::form_prefill_batch(q, {700, 10}, bm);
    // 300+300 fits; adding the third would cross the 700 budget.
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.total_tokens, 600u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(PrefillBatchFormation, FcfsOrderPreserved)
{
    auto reqs = make_requests({100, 100, 100});
    auto q = queue_of(reqs);
    kv::BlockManager bm(1000, 16);
    auto batch = eng::form_prefill_batch(q, {250, 10}, bm);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.requests[0]->id, 0u);
    EXPECT_EQ(batch.requests[1]->id, 1u);
}

TEST(PrefillBatchFormation, OversizedHeadRunsAlone)
{
    auto reqs = make_requests({5000, 100});
    auto q = queue_of(reqs);
    kv::BlockManager bm(1000, 16);
    auto batch = eng::form_prefill_batch(q, {4096, 10}, bm);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.total_tokens, 5000u);
}

TEST(PrefillBatchFormation, RespectsRequestCap)
{
    auto reqs = make_requests({10, 10, 10, 10, 10});
    auto q = queue_of(reqs);
    kv::BlockManager bm(1000, 16);
    auto batch = eng::form_prefill_batch(q, {4096, 3}, bm);
    EXPECT_EQ(batch.size(), 3u);
}

TEST(PrefillBatchFormation, AllocatesKvBlocks)
{
    auto reqs = make_requests({160});
    auto q = queue_of(reqs);
    kv::BlockManager bm(100, 16);
    auto batch = eng::form_prefill_batch(q, {4096, 10}, bm);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(bm.used_blocks(), 10u);
    EXPECT_TRUE(bm.holds(0));
}

TEST(PrefillBatchFormation, StopsWhenKvExhausted)
{
    auto reqs = make_requests({160, 160});
    auto q = queue_of(reqs);
    kv::BlockManager bm(15, 16); // only room for one request
    auto batch = eng::form_prefill_batch(q, {4096, 10}, bm);
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(PrefillBatchFormation, EmptyWhenNoKvAtAll)
{
    auto reqs = make_requests({160});
    auto q = queue_of(reqs);
    kv::BlockManager bm(2, 16);
    auto batch = eng::form_prefill_batch(q, {4096, 10}, bm);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(q.size(), 1u); // untouched
}

TEST(DecodeAdmission, FillsSmallestGroupFirst)
{
    auto reqs = make_requests({16, 16, 16});
    auto q = queue_of(reqs);
    std::vector<eng::DecodeGroup> groups(2);
    kv::BlockManager bm(1000, 16);
    auto admitted = eng::admit_decodes(q, groups, 8, bm);
    EXPECT_EQ(admitted.size(), 3u);
    EXPECT_EQ(groups[0].size() + groups[1].size(), 3u);
    EXPECT_LE(std::max(groups[0].size(), groups[1].size()), 2u);
}

TEST(DecodeAdmission, StopsAtGroupCap)
{
    auto reqs = make_requests({16, 16, 16, 16, 16});
    auto q = queue_of(reqs);
    std::vector<eng::DecodeGroup> groups(1);
    kv::BlockManager bm(1000, 16);
    auto admitted = eng::admit_decodes(q, groups, 3, bm);
    EXPECT_EQ(admitted.size(), 3u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(DecodeAdmission, StopsWhenKvExhausted)
{
    auto reqs = make_requests({64, 64, 64});
    auto q = queue_of(reqs);
    std::vector<eng::DecodeGroup> groups(1);
    kv::BlockManager bm(9, 16); // 2 requests of 4 blocks each fit
    auto admitted = eng::admit_decodes(q, groups, 8, bm);
    EXPECT_EQ(admitted.size(), 2u);
}

TEST(DecodeAdmission, SkipsAllocationIfResident)
{
    auto reqs = make_requests({64});
    auto q = queue_of(reqs);
    std::vector<eng::DecodeGroup> groups(1);
    kv::BlockManager bm(100, 16);
    bm.allocate(0, 64); // KV already resident (assist prefill case)
    auto admitted = eng::admit_decodes(q, groups, 8, bm);
    EXPECT_EQ(admitted.size(), 1u);
    EXPECT_EQ(bm.blocks_of(0), 4u); // unchanged
}

TEST(DecodeAdmission, SwappedOutHeadBlocksAllocationsNotHolders)
{
    auto reqs = make_requests({16, 16, 16});
    reqs[0].state = wl::RequestState::SwappedOut;
    auto q = queue_of(reqs);
    std::vector<eng::DecodeGroup> groups(1);
    kv::BlockManager bm(100, 16);
    bm.allocate(1, 16); // req 1 already resident (e.g. finished swap-in)
    auto admitted = eng::admit_decodes(q, groups, 8, bm);
    // A swapped-out head has a pending claim on blocks: later requests
    // may not allocate past it, but a request that already holds its KV
    // is admitted — parking it too can deadlock the instance.
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0]->id, 1u);
    EXPECT_EQ(q.size(), 2u); // swapped head + blocked non-holder remain
}

TEST(DecodeAdmission, BlockedHeadStopsLaterAllocations)
{
    auto reqs = make_requests({160, 16});
    auto q = queue_of(reqs);
    std::vector<eng::DecodeGroup> groups(1);
    kv::BlockManager bm(5, 16); // head (10 blocks) cannot fit; req 1 could
    auto admitted = eng::admit_decodes(q, groups, 8, bm);
    // FCFS for allocations: the small request must not jump the queue.
    EXPECT_TRUE(admitted.empty());
    EXPECT_EQ(q.size(), 2u);
}

TEST(VictimSelection, SwapPicksLatestArrival)
{
    auto reqs = make_requests({16, 16, 16});
    std::vector<eng::DecodeGroup> groups(1);
    for (auto &r : reqs)
        groups[0].add(&r);
    auto *victim = eng::select_swap_victim(groups, 0, nullptr);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->id, 2u); // latest arrival
}

TEST(VictimSelection, SwapExcludesProtected)
{
    auto reqs = make_requests({16, 16});
    std::vector<eng::DecodeGroup> groups(1);
    for (auto &r : reqs)
        groups[0].add(&r);
    auto *victim = eng::select_swap_victim(groups, 0, &reqs[1]);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->id, 0u);
}

TEST(VictimSelection, SwapSkipsMigrating)
{
    auto reqs = make_requests({16, 16});
    reqs[1].state = wl::RequestState::Migrating;
    std::vector<eng::DecodeGroup> groups(1);
    for (auto &r : reqs)
        groups[0].add(&r);
    auto *victim = eng::select_swap_victim(groups, 0, nullptr);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->id, 0u);
}

TEST(VictimSelection, EmptyGroupsGiveNull)
{
    std::vector<eng::DecodeGroup> groups(2);
    EXPECT_EQ(eng::select_swap_victim(groups, 0, nullptr), nullptr);
    EXPECT_EQ(eng::select_migration_victim(groups), nullptr);
}

// §3.3: "WindServe tends to migrate longer sequences" — opposite of
// Llumnix's short-first policy.
TEST(VictimSelection, MigrationPicksLongestContext)
{
    auto reqs = make_requests({100, 900, 400});
    std::vector<eng::DecodeGroup> groups(1);
    for (auto &r : reqs)
        groups[0].add(&r);
    auto *victim = eng::select_migration_victim(groups);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->prompt_tokens, 900u);
}

TEST(VictimSelection, MigrationCountsGeneratedTokens)
{
    auto reqs = make_requests({500, 450});
    reqs[1].generated = 100; // context 550 > 500
    std::vector<eng::DecodeGroup> groups(1);
    for (auto &r : reqs)
        groups[0].add(&r);
    EXPECT_EQ(eng::select_migration_victim(groups)->id, 1u);
}

TEST(DecodeGroup, SumContextAndMembership)
{
    auto reqs = make_requests({100, 200});
    reqs[0].generated = 5;
    eng::DecodeGroup g;
    g.add(&reqs[0]);
    g.add(&reqs[1]);
    EXPECT_EQ(g.sum_context(), 305u);
    EXPECT_TRUE(g.contains(&reqs[0]));
    EXPECT_TRUE(g.remove(&reqs[0]));
    EXPECT_FALSE(g.remove(&reqs[0]));
    EXPECT_EQ(g.size(), 1u);
}

TEST(DecodeGroup, TagFollowsMembership)
{
    auto reqs = make_requests({100, 200});
    eng::DecodeGroup a, b;
    EXPECT_NE(a.id(), b.id());
    EXPECT_NE(a.id(), wl::kNoDecodeGroup);
    a.add(&reqs[0]);
    EXPECT_EQ(reqs[0].decode_group, a.id());
    EXPECT_FALSE(b.contains(&reqs[0]));
    // A group that does not hold the request leaves it alone.
    EXPECT_FALSE(b.remove(&reqs[0]));
    EXPECT_EQ(reqs[0].decode_group, a.id());
    EXPECT_EQ(a.sum_context(), 100u);
    // A request sits in at most one group.
    EXPECT_THROW(b.add(&reqs[0]), std::logic_error);
    EXPECT_THROW(a.add(&reqs[0]), std::logic_error);
    EXPECT_TRUE(a.remove(&reqs[0]));
    EXPECT_EQ(reqs[0].decode_group, wl::kNoDecodeGroup);
    b.add(&reqs[0]);
    EXPECT_TRUE(b.contains(&reqs[0]));
    EXPECT_EQ(a.sum_context(), 0u);
    EXPECT_EQ(b.sum_context(), 100u);
}

TEST(DecodeGroup, SetGeneratedMovesSum)
{
    auto reqs = make_requests({100, 200});
    eng::DecodeGroup g, other;
    g.add(&reqs[0]);
    g.add(&reqs[1]);
    eng::set_generated(reqs[0], 7, &g);
    EXPECT_EQ(reqs[0].generated, 7u);
    EXPECT_EQ(g.sum_context(), 307u);
    eng::set_generated(reqs[0], 3, &g); // un-earning a token shrinks it
    EXPECT_EQ(g.sum_context(), 303u);
    // A running request must name its own group.
    EXPECT_THROW(eng::set_generated(reqs[1], 1), std::logic_error);
    EXPECT_THROW(eng::set_generated(reqs[1], 1, &other), std::logic_error);
    EXPECT_EQ(reqs[1].generated, 0u);
    EXPECT_EQ(g.sum_context(), 303u);
    // A request in no group is written directly.
    auto loose = make_requests({50});
    eng::set_generated(loose[0], 4);
    EXPECT_EQ(loose[0].generated, 4u);
}

TEST(DecodeGroup, RemoveSubtractsCurrentContext)
{
    auto reqs = make_requests({100, 200});
    eng::DecodeGroup g;
    g.add(&reqs[0]);
    g.add(&reqs[1]);
    eng::set_generated(reqs[1], 9, &g);
    EXPECT_TRUE(g.remove(&reqs[1]));
    EXPECT_EQ(g.sum_context(), 100u);
    EXPECT_TRUE(g.remove(&reqs[0]));
    EXPECT_EQ(g.sum_context(), 0u);
}

TEST(DecodeGroup, ClearUntagsEveryMember)
{
    auto reqs = make_requests({100, 200});
    eng::DecodeGroup g;
    g.add(&reqs[0]);
    g.add(&reqs[1]);
    g.busy = true;
    g.iteration_members = g.members();
    g.clear();
    EXPECT_EQ(g.size(), 0u);
    EXPECT_EQ(g.sum_context(), 0u);
    EXPECT_TRUE(g.iteration_members.empty());
    EXPECT_FALSE(g.busy);
    for (const auto &r : reqs)
        EXPECT_EQ(r.decode_group, wl::kNoDecodeGroup);
}

TEST(VictimSelection, SwapSkipsBusyGroupsButNotHome)
{
    auto reqs = make_requests({16, 16, 16});
    std::vector<eng::DecodeGroup> groups(3);
    groups[0].add(&reqs[0]);
    groups[1].add(&reqs[2]); // latest arrival, but mid-pass elsewhere
    groups[1].busy = true;
    groups[2].add(&reqs[1]);
    EXPECT_EQ(eng::select_swap_victim(groups, 0, nullptr)->id, 1u);
    // The home group is a candidate even while busy.
    EXPECT_EQ(eng::select_swap_victim(groups, 1, nullptr)->id, 2u);
}
