#include "memory/slowdown.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "testing/builders.hpp"

namespace dmsched {
namespace {

using testing::job;

TEST(Slowdown, NoFarMemoryNoDilation) {
  const SlowdownModel m;
  EXPECT_DOUBLE_EQ(m.dilation(0.0, 0.0, 0.0, MemSensitivity::kBalanced), 1.0);
}

TEST(Slowdown, LinearFormula) {
  SlowdownModel m;
  m.beta_rack = 0.3;
  m.beta_global = 0.5;
  EXPECT_DOUBLE_EQ(m.dilation(0.5, 0.0, 0.0, MemSensitivity::kBalanced), 1.15);
  EXPECT_DOUBLE_EQ(m.dilation(0.0, 0.0, 0.5, MemSensitivity::kBalanced), 1.25);
  EXPECT_DOUBLE_EQ(m.dilation(0.2, 0.0, 0.2, MemSensitivity::kBalanced),
                   1.0 + 0.2 * 0.3 + 0.2 * 0.5);
}

TEST(Slowdown, SensitivityScalesPenalty) {
  SlowdownModel m;
  m.beta_rack = 0.4;
  const double bal = m.dilation(0.5, 0.0, 0.0, MemSensitivity::kBalanced);
  const double cpu =
      m.dilation(0.5, 0.0, 0.0, MemSensitivity::kComputeBound);
  const double bw =
      m.dilation(0.5, 0.0, 0.0, MemSensitivity::kBandwidthBound);
  EXPECT_DOUBLE_EQ(bal, 1.2);
  EXPECT_DOUBLE_EQ(cpu, 1.0 + 0.2 * m.sens_compute);
  EXPECT_DOUBLE_EQ(bw, 1.0 + 0.2 * m.sens_bandwidth);
  EXPECT_LT(cpu, bal);
  EXPECT_GT(bw, bal);
}

TEST(Slowdown, SaturatingIsConcave) {
  SlowdownModel m;
  m.kind = SlowdownModel::Kind::kSaturating;
  m.beta_rack = 0.4;
  m.gamma = 0.5;
  const double at_quarter =
      m.dilation(0.25, 0.0, 0.0, MemSensitivity::kBalanced);
  const double at_full = m.dilation(1.0, 0.0, 0.0, MemSensitivity::kBalanced);
  // concave: quarter of the fraction gives half the full penalty
  EXPECT_DOUBLE_EQ(at_quarter - 1.0, (at_full - 1.0) / 2.0);
  EXPECT_GT(at_quarter - 1.0, 0.25 * (at_full - 1.0));
}

TEST(Slowdown, MonotoneInFraction) {
  const SlowdownModel m;
  double prev = 0.0;
  for (double phi = 0.0; phi <= 1.0; phi += 0.1) {
    const double d = m.dilation(phi, 0.0, 0.0, MemSensitivity::kBalanced);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(Slowdown, InvalidFractionAborts) {
  const SlowdownModel m;
  EXPECT_DEATH((void)m.dilation(0.8, 0.0, 0.3, MemSensitivity::kBalanced),
               "fractions");
  EXPECT_DEATH((void)m.dilation(-0.1, 0.0, 0.0, MemSensitivity::kBalanced),
               "fractions");
}

TEST(Slowdown, DilationForAllocation) {
  SlowdownModel m;
  m.beta_rack = 0.3;
  m.beta_global = 0.6;
  Allocation a;
  a.job = 0;
  a.nodes = {0, 1};
  a.local_per_node = gib(std::int64_t{60});
  a.far_per_node = gib(std::int64_t{40});
  a.draws = {{0, gib(std::int64_t{50})},
             {kGlobalPoolRack, gib(std::int64_t{30})}};
  const Job j = job(0).nodes(2).mem_gib(100);
  // phi_rack = 50/200, phi_global = 30/200
  EXPECT_DOUBLE_EQ(m.dilation_for(a, j), 1.0 + 0.25 * 0.3 + 0.15 * 0.6);
}

TEST(Slowdown, DilationBytesMatchesDilation) {
  const SlowdownModel m;
  const double via_bytes =
      m.dilation_bytes(gib(std::int64_t{25}), Bytes{0},
                       gib(std::int64_t{25}), gib(std::int64_t{100}),
                       MemSensitivity::kBalanced);
  EXPECT_DOUBLE_EQ(via_bytes,
                   m.dilation(0.25, 0.0, 0.25, MemSensitivity::kBalanced));
}

TEST(Slowdown, DilationBytesZeroTotal) {
  const SlowdownModel m;
  EXPECT_DOUBLE_EQ(m.dilation_bytes(Bytes{0}, Bytes{0}, Bytes{0}, Bytes{0},
                                    MemSensitivity::kBalanced),
                   1.0);
}

TEST(Slowdown, WorstCaseCoversBothRoutes) {
  // A deficit split any way between the rack and global tiers dilates no
  // more than the all-global route and no less than the all-rack one, so
  // the worst case is always one of the two single routes.
  SlowdownModel m;
  m.beta_rack = 0.3;
  m.beta_global = 0.6;
  const double phi = 0.4;
  const double via_rack = m.dilation(phi, 0.0, 0.0, MemSensitivity::kBalanced);
  const double via_global =
      m.dilation(0.0, 0.0, phi, MemSensitivity::kBalanced);
  EXPECT_DOUBLE_EQ(via_global, 1.0 + 0.4 * 0.6);
  for (int k = 0; k <= 8; ++k) {
    const double rack = phi * k / 8.0;
    const double d =
        m.dilation(rack, 0.0, phi - rack, MemSensitivity::kBalanced);
    EXPECT_LE(d, via_global + 1e-12);
    EXPECT_GE(d, via_rack - 1e-12);
  }
}

TEST(Slowdown, SensitivityMultiplierAccessors) {
  SlowdownModel m;
  EXPECT_DOUBLE_EQ(m.sensitivity_multiplier(MemSensitivity::kComputeBound),
                   m.sens_compute);
  EXPECT_DOUBLE_EQ(m.sensitivity_multiplier(MemSensitivity::kBalanced),
                   m.sens_balanced);
  EXPECT_DOUBLE_EQ(m.sensitivity_multiplier(MemSensitivity::kBandwidthBound),
                   m.sens_bandwidth);
}

TEST(Slowdown, ValidateAcceptsDefaultsAndZeroMultipliers) {
  SlowdownModel m;
  EXPECT_NO_THROW(m.validate());
  m.sens_compute = 0.0;
  m.sens_balanced = 0.0;
  m.sens_bandwidth = 0.0;
  EXPECT_NO_THROW(m.validate());
}

TEST(Slowdown, ValidateRejectsBadMultipliersNamingTheField) {
  constexpr double kBad[] = {-0.1, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()};
  for (const auto& [field, member] :
       {std::pair{"sens_compute", &SlowdownModel::sens_compute},
        std::pair{"sens_balanced", &SlowdownModel::sens_balanced},
        std::pair{"sens_bandwidth", &SlowdownModel::sens_bandwidth}}) {
    for (const double bad : kBad) {
      SlowdownModel m;
      m.*member = bad;
      try {
        m.validate();
        ADD_FAILURE() << field << " = " << bad << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace dmsched
