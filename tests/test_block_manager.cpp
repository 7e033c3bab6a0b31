/**
 * @file
 * Unit + property tests for the paged KV block manager.
 */
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "kvcache/block_manager.hpp"
#include "simcore/rng.hpp"

namespace kv = windserve::kvcache;

TEST(BlockManager, BlocksForRoundsUp)
{
    kv::BlockManager bm(100, 16);
    EXPECT_EQ(bm.blocks_for(0), 0u);
    EXPECT_EQ(bm.blocks_for(1), 1u);
    EXPECT_EQ(bm.blocks_for(16), 1u);
    EXPECT_EQ(bm.blocks_for(17), 2u);
    EXPECT_EQ(bm.blocks_for(160), 10u);
}

TEST(BlockManager, AllocateAndRelease)
{
    kv::BlockManager bm(10, 16);
    EXPECT_TRUE(bm.allocate(1, 40)); // 3 blocks
    EXPECT_EQ(bm.used_blocks(), 3u);
    EXPECT_EQ(bm.tokens_of(1), 40u);
    EXPECT_EQ(bm.blocks_of(1), 3u);
    bm.release(1);
    EXPECT_EQ(bm.used_blocks(), 0u);
    EXPECT_FALSE(bm.holds(1));
}

TEST(BlockManager, AllocateFailsWhenFullAndChangesNothing)
{
    kv::BlockManager bm(2, 16);
    EXPECT_TRUE(bm.allocate(1, 32));
    EXPECT_FALSE(bm.allocate(2, 1));
    EXPECT_FALSE(bm.holds(2));
    EXPECT_EQ(bm.used_blocks(), 2u);
}

TEST(BlockManager, DoubleAllocateThrows)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 16);
    EXPECT_THROW(bm.allocate(1, 16), std::logic_error);
}

TEST(BlockManager, GrowWithinBlockIsFree)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 10);
    EXPECT_TRUE(bm.grow(1, 16));
    EXPECT_EQ(bm.used_blocks(), 1u);
}

TEST(BlockManager, GrowAcrossBlockBoundaryTakesBlock)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 16);
    EXPECT_TRUE(bm.grow(1, 17));
    EXPECT_EQ(bm.used_blocks(), 2u);
    EXPECT_EQ(bm.tokens_of(1), 17u);
}

TEST(BlockManager, GrowFailsLeavesAllocationIntact)
{
    kv::BlockManager bm(2, 16);
    bm.allocate(1, 32);
    EXPECT_FALSE(bm.grow(1, 33));
    EXPECT_EQ(bm.tokens_of(1), 32u);
    EXPECT_EQ(bm.used_blocks(), 2u);
}

TEST(BlockManager, GrowUnknownThrows)
{
    kv::BlockManager bm(10, 16);
    EXPECT_THROW(bm.grow(9, 5), std::logic_error);
}

TEST(BlockManager, ShrinkThrows)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 32);
    EXPECT_THROW(bm.grow(1, 16), std::logic_error);
}

TEST(BlockManager, ReleaseUnknownIsNoop)
{
    kv::BlockManager bm(10, 16);
    bm.release(42);
    EXPECT_EQ(bm.used_blocks(), 0u);
}

TEST(BlockManager, OccupancyFraction)
{
    kv::BlockManager bm(10, 16);
    EXPECT_DOUBLE_EQ(bm.occupancy(), 0.0);
    bm.allocate(1, 80); // 5 blocks
    EXPECT_DOUBLE_EQ(bm.occupancy(), 0.5);
}

TEST(BlockManager, CanAllocateChecksFreeBlocks)
{
    kv::BlockManager bm(4, 16);
    bm.allocate(1, 48);
    EXPECT_TRUE(bm.can_allocate(16));
    EXPECT_FALSE(bm.can_allocate(17));
}

TEST(BlockManager, ZeroBlockSizeThrows)
{
    EXPECT_THROW(kv::BlockManager(10, 0), std::invalid_argument);
}

TEST(BlockManager, TotalTokensTracked)
{
    kv::BlockManager bm(100, 16);
    bm.allocate(1, 30);
    bm.allocate(2, 50);
    EXPECT_EQ(bm.total_tokens(), 80u);
    bm.grow(2, 60);
    EXPECT_EQ(bm.total_tokens(), 90u);
    bm.release(1);
    EXPECT_EQ(bm.total_tokens(), 60u);
}

/** Property: random alloc/grow/release sequence keeps invariants. */
TEST(BlockManagerProperty, RandomOpsPreserveInvariants)
{
    windserve::sim::Rng rng(77);
    kv::BlockManager bm(512, 16);
    std::unordered_map<kv::ReqId, std::size_t> shadow; // id -> tokens
    kv::ReqId next_id = 0;

    for (int step = 0; step < 20000; ++step) {
        double op = rng.uniform();
        if (op < 0.4) {
            std::size_t tokens =
                static_cast<std::size_t>(rng.uniform_int(1, 400));
            kv::ReqId id = next_id++;
            bool ok = bm.allocate(id, tokens);
            if (ok)
                shadow[id] = tokens;
        } else if (op < 0.75 && !shadow.empty()) {
            auto it = shadow.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<long>(shadow.size()) - 1));
            std::size_t extra =
                static_cast<std::size_t>(rng.uniform_int(1, 50));
            if (bm.grow(it->first, it->second + extra))
                it->second += extra;
        } else if (!shadow.empty()) {
            auto it = shadow.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<long>(shadow.size()) - 1));
            bm.release(it->first);
            shadow.erase(it);
        }

        // Invariants after every step.
        ASSERT_EQ(bm.num_holders(), shadow.size());
        std::size_t blocks = 0, tokens = 0;
        for (const auto &[id, t] : shadow) {
            ASSERT_EQ(bm.tokens_of(id), t);
            ASSERT_EQ(bm.blocks_of(id), bm.blocks_for(t));
            blocks += bm.blocks_for(t);
            tokens += t;
        }
        ASSERT_EQ(bm.used_blocks(), blocks);
        ASSERT_EQ(bm.total_tokens(), tokens);
        ASSERT_LE(bm.used_blocks(), bm.total_blocks());
    }
}

/** Property: what was allocated can always be fully released. */
TEST(BlockManagerProperty, FullDrainReturnsToEmpty)
{
    windserve::sim::Rng rng(5);
    kv::BlockManager bm(256, 16);
    std::vector<kv::ReqId> ids;
    for (kv::ReqId id = 0; id < 100; ++id)
        if (bm.allocate(id, static_cast<std::size_t>(
                                rng.uniform_int(1, 128))))
            ids.push_back(id);
    for (auto id : ids)
        bm.release(id);
    EXPECT_EQ(bm.used_blocks(), 0u);
    EXPECT_EQ(bm.total_tokens(), 0u);
    EXPECT_DOUBLE_EQ(bm.occupancy(), 0.0);
}

/** Property: the flat per-request table stays exact under ids that
 *  collide in their home slots, table growth and churn that deletes
 *  across the wrap-around. */
TEST(BlockManagerProperty, TableMatchesReferenceUnderChurn)
{
    windserve::sim::Rng rng(13);
    kv::BlockManager bm(1u << 20, 16);
    std::map<kv::ReqId, std::size_t> shadow; // id -> tokens
    auto pick_id = [&]() -> kv::ReqId {
        auto k = static_cast<kv::ReqId>(rng.uniform_int(0, 300));
        switch (rng.uniform_int(0, 2)) {
          case 0:
            return k;                // dense, like trace ids
          case 1:
            return k << 40;          // equal low bits
          default:
            return ~kv::ReqId{0} - k; // near the top of the range
        }
    };
    for (int step = 0; step < 30000; ++step) {
        kv::ReqId id = pick_id();
        auto it = shadow.find(id);
        if (it == shadow.end()) {
            auto tokens = static_cast<std::size_t>(rng.uniform_int(0, 64));
            ASSERT_TRUE(bm.allocate(id, tokens));
            shadow[id] = tokens;
        } else if (rng.uniform() < 0.3) {
            ASSERT_TRUE(bm.grow(id, it->second + 1));
            ++it->second;
        } else {
            bm.release(id);
            shadow.erase(it);
        }
        ASSERT_EQ(bm.num_holders(), shadow.size());
        ASSERT_TRUE(bm.holds(id) == (shadow.count(id) > 0));
        if (step % 97 == 0) {
            std::vector<kv::ReqId> expect;
            for (const auto &[rid, tokens] : shadow) {
                expect.push_back(rid);
                ASSERT_EQ(bm.tokens_of(rid), tokens);
            }
            ASSERT_EQ(bm.holders(), expect);
        }
    }
}
