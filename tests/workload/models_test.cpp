#include "workload/models.hpp"

#include <gtest/gtest.h>

#include "workload/characterize.hpp"

namespace dmsched {
namespace {

constexpr std::int32_t kNodes = 1024;
const Bytes kRef = gib(std::int64_t{256});

TEST(Models, NamesRoundTrip) {
  for (const WorkloadModel m : all_workload_models()) {
    EXPECT_EQ(workload_model_from_string(to_string(m)), m);
  }
}

TEST(Models, UnknownNameIsNullopt) {
  EXPECT_FALSE(workload_model_from_string("nope").has_value());
  EXPECT_FALSE(workload_model_from_string("").has_value());
}

TEST(Models, AllModelsGenerate) {
  for (const WorkloadModel m : all_workload_models()) {
    const Trace t = make_model_trace(m, 500, 1, kNodes, kRef, 0.8);
    EXPECT_EQ(t.size(), 500u) << to_string(m);
    EXPECT_NEAR(t.offered_load(kNodes), 0.8, 0.05) << to_string(m);
  }
}

TEST(Models, CapacityIsMemoryHeavierThanCapability) {
  const Trace cap = make_model_trace(WorkloadModel::kCapability, 2000, 5,
                                     kNodes, kRef, 0.8);
  const Trace dat = make_model_trace(WorkloadModel::kCapacity, 2000, 5,
                                     kNodes, kRef, 0.8);
  const TraceStats s_cap = characterize(cap, kRef, kNodes);
  const TraceStats s_dat = characterize(dat, kRef, kNodes);
  EXPECT_GT(s_dat.frac_mem_above_half, s_cap.frac_mem_above_half);
  EXPECT_GT(s_dat.frac_mem_above_full, s_cap.frac_mem_above_full);
}

TEST(Models, CapabilityJobsAreWider) {
  const Trace cap = make_model_trace(WorkloadModel::kCapability, 2000, 6,
                                     kNodes, kRef, 0.8);
  const Trace dat = make_model_trace(WorkloadModel::kCapacity, 2000, 6,
                                     kNodes, kRef, 0.8);
  EXPECT_GT(characterize(cap, kRef, kNodes).nodes_mean,
            characterize(dat, kRef, kNodes).nodes_mean);
}

TEST(Models, EveryModelHasDisaggregationCandidates) {
  // Each archetype must contain jobs that exceed full local memory —
  // the population the paper's system exists for.
  for (const WorkloadModel m : all_workload_models()) {
    const Trace t = make_model_trace(m, 3000, 7, kNodes, kRef, 0.8);
    const TraceStats s = characterize(t, kRef, kNodes);
    EXPECT_GT(s.frac_mem_above_full, 0.0) << to_string(m);
    EXPECT_LT(s.frac_mem_above_full, 0.3) << to_string(m);
  }
}

TEST(Models, SpecScalesWithMachine) {
  const SyntheticSpec spec =
      model_spec(WorkloadModel::kCapability, 128, gib(std::int64_t{64}));
  for (const auto& bucket : spec.node_buckets) {
    EXPECT_LE(bucket.hi, 128);
  }
  EXPECT_EQ(spec.reference_node_mem, gib(std::int64_t{64}));
}

TEST(Models, DeterministicAcrossCalls) {
  const Trace a =
      make_model_trace(WorkloadModel::kMixed, 300, 9, kNodes, kRef, 0.9);
  const Trace b =
      make_model_trace(WorkloadModel::kMixed, 300, 9, kNodes, kRef, 0.9);
  ASSERT_EQ(a.size(), b.size());
  for (JobId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.job(i).submit, b.job(i).submit);
    EXPECT_EQ(a.job(i).mem_per_node, b.job(i).mem_per_node);
  }
}

}  // namespace
}  // namespace dmsched
