#include "sched/queue_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;

/// Sort ids (positions in `jobs`, as in a dense trace) with the queue
/// comparator.
void order_queue(std::vector<JobId>& ids, const std::vector<Job>& jobs,
                 QueueOrder order, SimTime now) {
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    return queue_precedes(jobs[a], jobs[b], order, now);
  });
}

std::vector<Job> sample_jobs() {
  // id: submit_h, walltime_h, nodes
  return {job(0).at_h(0.0).walltime_h(10.0).nodes(4).runtime_h(1.0),
          job(1).at_h(1.0).walltime_h(1.0).nodes(64).runtime_h(0.5),
          job(2).at_h(2.0).walltime_h(5.0).nodes(16).runtime_h(2.0),
          job(3).at_h(0.5).walltime_h(1.0).nodes(1).runtime_h(0.5)};
}

TEST(QueuePolicy, FcfsOrdersBySubmission) {
  auto jobs = sample_jobs();
  std::vector<JobId> ids{2, 0, 3, 1};
  order_queue(ids, jobs, QueueOrder::kFcfs, hours(10));
  EXPECT_EQ(ids, (std::vector<JobId>{0, 3, 1, 2}));
}

TEST(QueuePolicy, FcfsTieBreaksOnId) {
  auto jobs = std::vector<Job>{job(0).at_h(1.0), job(1).at_h(1.0)};
  std::vector<JobId> ids{1, 0};
  order_queue(ids, jobs, QueueOrder::kFcfs, hours(10));
  EXPECT_EQ(ids, (std::vector<JobId>{0, 1}));
}

TEST(QueuePolicy, ShortestFirstOrdersByWalltime) {
  auto jobs = sample_jobs();
  std::vector<JobId> ids{0, 1, 2, 3};
  order_queue(ids, jobs, QueueOrder::kShortestFirst, hours(10));
  // walltimes: 10, 1, 5, 1 -> {1,3} (1h, tie by submit: 3 at 0.5h first), 2, 0
  EXPECT_EQ(ids, (std::vector<JobId>{3, 1, 2, 0}));
}

TEST(QueuePolicy, LargestFirstOrdersByNodes) {
  auto jobs = sample_jobs();
  std::vector<JobId> ids{0, 1, 2, 3};
  order_queue(ids, jobs, QueueOrder::kLargestFirst, hours(10));
  EXPECT_EQ(ids, (std::vector<JobId>{1, 2, 0, 3}));
}

TEST(QueuePolicy, WfpFavorsOldAndLarge) {
  auto jobs = sample_jobs();
  std::vector<JobId> ids{0, 1, 2, 3};
  order_queue(ids, jobs, QueueOrder::kWfp, hours(100));
  // score = (wait/walltime)^3 * nodes at t=100h:
  // 0: (100/10)^3*4 = 4e3;  1: (99/1)^3*64 ≈ 6.2e7;
  // 2: (98/5)^3*16 ≈ 1.2e5; 3: (99.5/1)^3*1 ≈ 9.85e5
  EXPECT_EQ(ids, (std::vector<JobId>{1, 3, 2, 0}));
}

TEST(QueuePolicy, WfpChangesWithTime) {
  auto jobs = std::vector<Job>{
      job(0).at_h(0.0).walltime_h(10.0).nodes(1).runtime_h(1.0),
      job(1).at_h(4.9).walltime_h(1.0).nodes(1).runtime_h(0.5)};
  std::vector<JobId> early{0, 1};
  order_queue(early, jobs, QueueOrder::kWfp, hours(5));
  // at 5h: 0: (5/10)^3 = 0.125; 1: (0.1/1)^3 = 0.001 -> 0 first
  EXPECT_EQ(early, (std::vector<JobId>{0, 1}));
  std::vector<JobId> late{0, 1};
  order_queue(late, jobs, QueueOrder::kWfp, hours(50));
  // at 50h: 0: 125; 1: (45.1)^3 ≈ 9.2e4 -> 1 first
  EXPECT_EQ(late, (std::vector<JobId>{1, 0}));
}

TEST(QueuePolicy, EmptyQueueIsFine) {
  auto jobs = sample_jobs();
  std::vector<JobId> ids;
  order_queue(ids, jobs, QueueOrder::kFcfs, SimTime{});
  EXPECT_TRUE(ids.empty());
}

TEST(QueuePolicy, ToStringCoverage) {
  EXPECT_STREQ(to_string(QueueOrder::kFcfs), "fcfs");
  EXPECT_STREQ(to_string(QueueOrder::kShortestFirst), "sjf");
  EXPECT_STREQ(to_string(QueueOrder::kLargestFirst), "largest");
  EXPECT_STREQ(to_string(QueueOrder::kWfp), "wfp");
}

}  // namespace
}  // namespace dmsched
