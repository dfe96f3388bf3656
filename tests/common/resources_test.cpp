#include "common/resources.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace dmsched {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(CheckedArithmetic, AddAndMulPassThroughInRange) {
  EXPECT_EQ(checked_add_i64(2, 3), 5);
  EXPECT_EQ(checked_add_i64(kMax - 1, 1), kMax);
  EXPECT_EQ(checked_mul_i64(1 << 20, 1 << 20), std::int64_t{1} << 40);
  EXPECT_EQ(checked_mul_i64(kMax, 1), kMax);
  EXPECT_EQ(checked_mul_i64(0, kMax), 0);
  // Negative operands are fine as long as the result fits; only wrap and
  // (for the Bytes forms) negative results are errors.
  EXPECT_EQ(checked_add_i64(-5, 3), -2);
  EXPECT_EQ(checked_mul_i64(-4, 2), -8);
}

TEST(CheckedArithmeticDeathTest, AddOverflowAborts) {
  EXPECT_DEATH((void)checked_add_i64(kMax, 1), "overflowed");
  EXPECT_DEATH((void)checked_add_i64(kMin, -1), "overflowed");
}

TEST(CheckedArithmeticDeathTest, MulOverflowAborts) {
  EXPECT_DEATH((void)checked_mul_i64(kMax, 2), "overflowed");
  EXPECT_DEATH((void)checked_mul_i64(kMin, -1), "overflowed");
  // The Bytes-scale case the header warns about: footprint × width × jobs
  // approaching 2^63. 16 EiB-ish per-node times a wide machine must die,
  // not wrap into a negative capacity.
  EXPECT_DEATH((void)checked_mul(Bytes{kMax / 2}, 3), "overflowed");
}

TEST(CheckedArithmetic, BytesFormsRejectNegativeResults) {
  EXPECT_EQ(checked_add(gib(std::int64_t{1}), gib(std::int64_t{2})),
            gib(std::int64_t{3}));
  EXPECT_EQ(checked_mul(gib(std::int64_t{4}), 8), gib(std::int64_t{32}));
  EXPECT_EQ(checked_mul(Bytes{0}, kMax), Bytes{0});
}

TEST(CheckedArithmeticDeathTest, NegativeByteResultsAbort) {
  // In range for i64 but negative: a byte quantity (capacity, footprint)
  // can never be negative, so the Bytes forms add that check on top.
  EXPECT_DEATH((void)checked_add(Bytes{-10}, Bytes{3}), "negative");
  EXPECT_DEATH((void)checked_mul(gib(std::int64_t{1}), -2), "negative");
}

TEST(ResourceVector, DefaultIsTheEmptyLegacyRequest) {
  const ResourceVector v;
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.nodes, 0);
  EXPECT_TRUE(v.mem_per_node.is_zero());
  EXPECT_EQ(v.gpus_per_node, 0);
  EXPECT_TRUE(v.bb_bytes.is_zero());
  EXPECT_EQ(v.total_mem(), Bytes{0});
  EXPECT_EQ(v.total_gpus(), 0);
}

TEST(ResourceVector, AggregatesScaleWithNodes) {
  const ResourceVector v{.nodes = 8,
                         .mem_per_node = gib(std::int64_t{64}),
                         .gpus_per_node = 4,
                         .bb_bytes = gib(std::int64_t{100})};
  EXPECT_FALSE(v.is_zero());
  EXPECT_EQ(v.total_mem(), gib(std::int64_t{512}));
  EXPECT_EQ(v.total_gpus(), 32);
}

TEST(ResourceVector, AnySingleAxisMakesItNonZero) {
  EXPECT_FALSE((ResourceVector{.nodes = 1}).is_zero());
  EXPECT_FALSE((ResourceVector{.mem_per_node = Bytes{1}}).is_zero());
  EXPECT_FALSE((ResourceVector{.gpus_per_node = 1}).is_zero());
  EXPECT_FALSE((ResourceVector{.bb_bytes = Bytes{1}}).is_zero());
}

TEST(ResourceVectorDeathTest, AggregateOverflowAbortsInsteadOfWrapping) {
  const ResourceVector v{.nodes = 3, .mem_per_node = Bytes{kMax / 2}};
  EXPECT_DEATH((void)v.total_mem(), "overflowed");
}

TEST(ResourceVector, EqualityComparesAllAxes) {
  const ResourceVector a{.nodes = 4, .gpus_per_node = 2};
  ResourceVector b = a;
  EXPECT_EQ(a, b);
  b.bb_bytes = Bytes{1};
  EXPECT_NE(a, b);
}

TEST(ResourceAxes, PresetsAndAllOn) {
  EXPECT_TRUE(ResourceAxes::all().all_on());
  EXPECT_TRUE(ResourceAxes{}.all_on());  // default enforces everything
  const ResourceAxes mem = ResourceAxes::memory_only();
  EXPECT_FALSE(mem.all_on());
  EXPECT_FALSE(mem.gpus);
  EXPECT_FALSE(mem.burst_buffer);
  EXPECT_NE(mem, ResourceAxes::all());
  // A partially blind policy is neither preset.
  EXPECT_FALSE((ResourceAxes{.gpus = true, .burst_buffer = false}).all_on());
}

}  // namespace
}  // namespace dmsched
