// CounterRegistry: get-or-create semantics, reference stability,
// registration-order iteration, gauge envelopes, and the CSV dump.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dmsched::obs {
namespace {

TEST(CounterRegistryTest, GetOrCreateReturnsSameEntry) {
  CounterRegistry reg;
  Counter& a = reg.counter("events");
  a.add(3);
  Counter& b = reg.counter("events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value, 3u);
  EXPECT_EQ(reg.counter_count(), 1u);
}

TEST(CounterRegistryTest, ReferencesStayValidAcrossGrowth) {
  CounterRegistry reg;
  Counter& first = reg.counter("c0");
  Gauge& g_first = reg.gauge("g0");
  // Force enough insertions that vector-backed storage would reallocate.
  for (int i = 1; i < 200; ++i) {
    std::string c = "c";
    c += std::to_string(i);
    std::string g = "g";
    g += std::to_string(i);
    reg.counter(c);
    reg.gauge(g);
  }
  first.add(7);
  g_first.set(1.5);
  EXPECT_EQ(&reg.counter("c0"), &first);
  EXPECT_EQ(&reg.gauge("g0"), &g_first);
  EXPECT_EQ(reg.counter("c0").value, 7u);
  EXPECT_EQ(reg.gauge("g0").last, 1.5);
  EXPECT_EQ(reg.counter_count(), 200u);
  EXPECT_EQ(reg.gauge_count(), 200u);
}

TEST(CounterRegistryTest, IterationIsRegistrationOrder) {
  CounterRegistry reg;
  reg.counter("zebra");
  reg.counter("apple");
  reg.counter("mango");
  reg.gauge("z");
  reg.gauge("a");
  // The dump lists each kind in registration order, never sorted.
  const std::string path = ::testing::TempDir() + "counters_order.csv";
  ASSERT_TRUE(reg.write_csv(path));
  std::ifstream in(path);
  std::vector<std::string> names;
  for (std::string line; std::getline(in, line);) {
    std::stringstream row(line);
    std::string kind, name;
    std::getline(row, kind, ',');
    std::getline(row, name, ',');
    if (kind != "kind") names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"zebra", "apple", "mango", "z",
                                             "a"}));
}

TEST(GaugeTest, EnvelopeTracksMinLastMax) {
  Gauge g;
  EXPECT_EQ(g.samples, 0u);
  g.set(5.0);
  EXPECT_EQ(g.min, 5.0);
  EXPECT_EQ(g.max, 5.0);
  EXPECT_EQ(g.last, 5.0);
  g.set(-2.0);
  g.set(3.0);
  EXPECT_EQ(g.min, -2.0);
  EXPECT_EQ(g.max, 5.0);
  EXPECT_EQ(g.last, 3.0);
  EXPECT_EQ(g.samples, 3u);
}

TEST(GaugeTest, FirstSampleResetsEnvelopeEvenIfPositive) {
  // min must not stick at the zero-initialized value.
  Gauge g;
  g.set(10.0);
  EXPECT_EQ(g.min, 10.0);
}

TEST(CounterRegistryTest, CsvDumpRoundTrips) {
  CounterRegistry reg;
  reg.counter("jobs").add(42);
  Gauge& g = reg.gauge("depth");
  g.set(1.0);
  g.set(9.0);
  g.set(4.0);
  reg.gauge("never_sampled");

  const std::string path = ::testing::TempDir() + "counters_roundtrip.csv";
  ASSERT_TRUE(reg.write_csv(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "kind,name,value,min,max,samples");
  EXPECT_EQ(lines[1], "counter,jobs,42,,,");
  // Gauge row: value = last, then min, max, samples.
  std::stringstream row(lines[2]);
  std::string field;
  std::vector<std::string> fields;
  while (std::getline(row, field, ',')) fields.push_back(field);
  ASSERT_EQ(fields.size(), 6u);
  EXPECT_EQ(fields[0], "gauge");
  EXPECT_EQ(fields[1], "depth");
  EXPECT_EQ(std::stod(fields[2]), 4.0);
  EXPECT_EQ(std::stod(fields[3]), 1.0);
  EXPECT_EQ(std::stod(fields[4]), 9.0);
  EXPECT_EQ(fields[5], "3");
  // An unsampled gauge keeps its numeric columns blank.
  EXPECT_EQ(lines[3].substr(0, 19), "gauge,never_sampled");
}

TEST(CounterRegistryTest, CsvWriteFailsCleanly) {
  CounterRegistry reg;
  reg.counter("x");
  EXPECT_FALSE(reg.write_csv("/nonexistent-dir/zzz/counters.csv"));
}

}  // namespace
}  // namespace dmsched::obs
