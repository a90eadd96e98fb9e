// Tests for the paged KV-cache allocator.
#include <gtest/gtest.h>

#include "model/registry.h"
#include "runtime/kv_cache.h"

namespace sq::runtime {
namespace {

using sq::hw::Bitwidth;

class KvFixture : public ::testing::Test {
 protected:
  KvFixture() : m_(sq::model::spec(sq::model::ModelId::kOpt13B)) {}
  sq::model::LlmSpec m_;
};

TEST_F(KvFixture, BlockBytesMatchModelFormula) {
  const KvCacheAllocator kv(m_, 1ULL << 30, 10, Bitwidth::kFp16);
  EXPECT_EQ(kv.block_bytes(), m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10);
}

TEST_F(KvFixture, ReserveRoundsUpToBlocks) {
  const std::uint64_t budget = 100 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10;
  KvCacheAllocator kv(m_, budget, 10, Bitwidth::kFp16);
  EXPECT_TRUE(kv.reserve(1, 17));  // 2 blocks
  EXPECT_EQ(kv.blocks_of(1), 2u);
  EXPECT_TRUE(kv.reserve(1, 32));  // still 2 blocks
  EXPECT_EQ(kv.blocks_of(1), 2u);
  EXPECT_TRUE(kv.reserve(1, 33));  // grows to 3
  EXPECT_EQ(kv.blocks_of(1), 3u);
}

TEST_F(KvFixture, BudgetEnforced) {
  const std::uint64_t budget = 4 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10;
  KvCacheAllocator kv(m_, budget, 10, Bitwidth::kFp16);
  EXPECT_TRUE(kv.reserve(1, 48));   // 3 blocks
  EXPECT_FALSE(kv.reserve(2, 32));  // needs 2, only 1 left -> refused
  EXPECT_EQ(kv.blocks_of(2), 0u);   // state unchanged
  EXPECT_TRUE(kv.reserve(2, 16));   // exactly fits
  EXPECT_EQ(kv.free_blocks(), 0u);
}

TEST_F(KvFixture, ReleaseReturnsBlocks) {
  const std::uint64_t budget = 4 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10;
  KvCacheAllocator kv(m_, budget, 10, Bitwidth::kFp16);
  ASSERT_TRUE(kv.reserve(1, 64));
  EXPECT_EQ(kv.free_blocks(), 0u);
  kv.release(1);
  EXPECT_EQ(kv.free_blocks(), 4u);
  kv.release(99);  // unknown request is a no-op
  EXPECT_EQ(kv.free_blocks(), 4u);
}

TEST_F(KvFixture, UtilizationTracksUsage) {
  const std::uint64_t budget = 10 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 5;
  KvCacheAllocator kv(m_, budget, 5, Bitwidth::kFp16);
  EXPECT_DOUBLE_EQ(kv.utilization(), 0.0);
  ASSERT_TRUE(kv.reserve(1, 16 * 5));
  EXPECT_DOUBLE_EQ(kv.utilization(), 0.5);
}

TEST_F(KvFixture, QuantizedKvDoublesCapacity) {
  const std::uint64_t budget = 1ULL << 28;
  const KvCacheAllocator fp16(m_, budget, 10, Bitwidth::kFp16);
  const KvCacheAllocator int8(m_, budget, 10, Bitwidth::kInt8);
  EXPECT_NEAR(static_cast<double>(int8.free_blocks()) /
                  static_cast<double>(fp16.free_blocks()),
              2.0, 0.02);
}

TEST_F(KvFixture, ZeroLayerAllocatorIsInert) {
  const KvCacheAllocator kv(m_, 1ULL << 30, 0, Bitwidth::kFp16);
  EXPECT_EQ(kv.block_bytes(), 0u);
  EXPECT_EQ(kv.free_blocks(), 0u);
  EXPECT_DOUBLE_EQ(kv.utilization(), 1.0);  // nothing available
}

// Request ids need not be contiguous or ordered; each holds its own blocks.
TEST_F(KvFixture, NonContiguousIdsHoldIndependentBlocks) {
  const std::uint64_t budget = 10 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10;
  KvCacheAllocator kv(m_, budget, 10, Bitwidth::kFp16);
  ASSERT_TRUE(kv.reserve(0, 16));  // 1 block
  ASSERT_TRUE(kv.reserve(7, 48));  // 3 blocks
  ASSERT_TRUE(kv.reserve(3, 32));  // 2 blocks
  EXPECT_EQ(kv.blocks_of(0), 1u);
  EXPECT_EQ(kv.blocks_of(7), 3u);
  EXPECT_EQ(kv.blocks_of(3), 2u);
  EXPECT_EQ(kv.blocks_of(5), 0u);    // never reserved, inside the id range
  EXPECT_EQ(kv.blocks_of(100), 0u);  // never reserved, past every id
  EXPECT_EQ(kv.free_blocks(), 4u);
  kv.release(7);
  EXPECT_EQ(kv.blocks_of(7), 0u);
  EXPECT_EQ(kv.blocks_of(0), 1u);
  EXPECT_EQ(kv.blocks_of(3), 2u);
  EXPECT_EQ(kv.free_blocks(), 7u);
}

// A released request reserves again from zero, like a fresh one.
TEST_F(KvFixture, ReleaseThenReserveStartsFromZero) {
  const std::uint64_t budget = 4 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10;
  KvCacheAllocator kv(m_, budget, 10, Bitwidth::kFp16);
  ASSERT_TRUE(kv.reserve(2, 64));  // 4 blocks: the whole pool
  kv.release(2);
  kv.release(2);  // a second release is a no-op
  EXPECT_EQ(kv.free_blocks(), 4u);
  EXPECT_TRUE(kv.reserve(2, 17));  // 2 blocks again, not 4
  EXPECT_EQ(kv.blocks_of(2), 2u);
  EXPECT_EQ(kv.free_blocks(), 2u);
}

// A denied reserve leaves every request's holding as it was, for a known
// id and for an id never seen before.
TEST_F(KvFixture, DeniedReserveLeavesBlocksUnchanged) {
  const std::uint64_t budget = 4 * m_.layer_kv_bytes(16, Bitwidth::kFp16) * 10;
  KvCacheAllocator kv(m_, budget, 10, Bitwidth::kFp16);
  ASSERT_TRUE(kv.reserve(1, 32));  // 2 blocks
  ASSERT_TRUE(kv.reserve(0, 16));  // 1 block
  EXPECT_FALSE(kv.reserve(1, 64));  // needs 2 more, 1 free
  EXPECT_EQ(kv.blocks_of(1), 2u);
  EXPECT_FALSE(kv.reserve(9, 48));  // needs 3, 1 free
  EXPECT_EQ(kv.blocks_of(9), 0u);
  EXPECT_EQ(kv.blocks_of(0), 1u);
  EXPECT_EQ(kv.free_blocks(), 1u);
}

}  // namespace
}  // namespace sq::runtime
