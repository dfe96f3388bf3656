#include "cluster/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace dmsched {
namespace {

ClusterConfig shape(std::int32_t nodes, std::int32_t per_rack) {
  ClusterConfig c;
  c.total_nodes = nodes;
  c.nodes_per_rack = per_rack;
  c.local_mem_per_node = gib(std::int64_t{64});
  return c;
}

TEST(ClusterConfig, RackCountExact) {
  EXPECT_EQ(shape(64, 16).racks(), 4);
}

TEST(ClusterConfig, RackCountRoundsUp) {
  EXPECT_EQ(shape(65, 16).racks(), 5);
}

TEST(ClusterConfig, RackOfMapsRackMajor) {
  const ClusterConfig c = shape(64, 16);
  EXPECT_EQ(c.rack_of(0), 0);
  EXPECT_EQ(c.rack_of(15), 0);
  EXPECT_EQ(c.rack_of(16), 1);
  EXPECT_EQ(c.rack_of(63), 3);
}

TEST(ClusterConfig, PartialLastRackSize) {
  const ClusterConfig c = shape(20, 8);
  EXPECT_EQ(c.racks(), 3);
  EXPECT_EQ(c.rack_size(0), 8);
  EXPECT_EQ(c.rack_size(1), 8);
  EXPECT_EQ(c.rack_size(2), 4);
}

TEST(ClusterConfig, TotalPoolSumsRackAndGlobal) {
  ClusterConfig c = shape(64, 16);
  c.pool_per_rack = gib(std::int64_t{100});
  c.global_pool = gib(std::int64_t{50});
  EXPECT_EQ(c.total_pool(), gib(std::int64_t{450}));  // 4 racks × 100 + 50
}

TEST(ClusterConfig, TotalMemoryIncludesLocal) {
  ClusterConfig c = shape(4, 2);
  c.pool_per_rack = gib(std::int64_t{10});
  EXPECT_EQ(c.total_memory(),
            gib(std::int64_t{4 * 64 + 2 * 10}));
}

TEST(ClusterConfig, ValidateAcceptsSane) {
  shape(64, 16).validate();  // must not throw
}

/// The message `config.validate()` throws, or "" when it accepts.
std::string validate_error(const ClusterConfig& config) {
  try {
    config.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ClusterConfig, ValidateRejectsZeroNodes) {
  EXPECT_THROW(shape(0, 16).validate(), std::invalid_argument);
  EXPECT_EQ(validate_error(shape(0, 16)).rfind("total_nodes ", 0), 0U);
}

TEST(ClusterConfig, ValidateRejectsZeroLocalMemory) {
  ClusterConfig c = shape(4, 2);
  c.local_mem_per_node = Bytes{0};
  EXPECT_THROW(c.validate(), std::invalid_argument);
  EXPECT_EQ(validate_error(c).rfind("local_mem_per_node ", 0), 0U);
}

}  // namespace
}  // namespace dmsched
