#include "core/factory.hpp"

#include <gtest/gtest.h>

namespace dmsched {
namespace {

TEST(Factory, NamesRoundTrip) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    EXPECT_EQ(scheduler_kind_from_string(to_string(kind)), kind);
  }
}

TEST(Factory, UnknownNameIsNullopt) {
  EXPECT_FALSE(scheduler_kind_from_string("slurm").has_value());
  EXPECT_FALSE(scheduler_kind_from_string("").has_value());
}

TEST(Factory, AllKindsListedOnce) {
  const auto kinds = all_scheduler_kinds();
  EXPECT_EQ(kinds.size(), 5u);
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    for (std::size_t k = i + 1; k < kinds.size(); ++k) {
      EXPECT_NE(kinds[i], kinds[k]);
    }
  }
}

TEST(Factory, InstantiatesEveryKindWithMatchingName) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto scheduler = make_scheduler(kind);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_STREQ(scheduler->name(), to_string(kind));
  }
}

TEST(Factory, MemOptionsReachMemAwareVariants) {
  MemAwareOptions options;
  options.adaptive = true;  // must be overridden per kind
  EXPECT_STREQ(make_scheduler(SchedulerKind::kMemAwareEasy, options)->name(),
               "mem-easy");
  options.adaptive = false;
  EXPECT_STREQ(make_scheduler(SchedulerKind::kAdaptive, options)->name(),
               "adaptive");
}

}  // namespace
}  // namespace dmsched
