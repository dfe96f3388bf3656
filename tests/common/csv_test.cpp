#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace dmsched {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the cases as parallel processes.
  std::string path_ =
      ::testing::TempDir() + "/csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";

  std::string read_back() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndRows) {
  {
    CsvWriter w(path_);
    ASSERT_TRUE(w.ok());
    w.header({"a", "b", "c"});
    w.add("x").add(std::int64_t{7}).add(1.5);
    w.end_row();
  }
  EXPECT_EQ(read_back(), "a,b,c\nx,7,1.5\n");
}

TEST_F(CsvTest, QuotesFieldsWithCommas) {
  {
    CsvWriter w(path_);
    w.header({"v"});
    w.add("hello, world").end_row();
  }
  EXPECT_EQ(read_back(), "v\n\"hello, world\"\n");
}

TEST_F(CsvTest, EscapesEmbeddedQuotes) {
  {
    CsvWriter w(path_);
    w.header({"v"});
    w.add("say \"hi\"").end_row();
  }
  EXPECT_EQ(read_back(), "v\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, QuotesNewlines) {
  {
    CsvWriter w(path_);
    w.header({"v"});
    w.add("two\nlines").end_row();
  }
  EXPECT_EQ(read_back(), "v\n\"two\nlines\"\n");
}

TEST_F(CsvTest, SizeTOverload) {
  {
    CsvWriter w(path_);
    w.header({"n"});
    w.add(std::size_t{123}).end_row();
  }
  EXPECT_EQ(read_back(), "n\n123\n");
}

TEST_F(CsvTest, UnwritablePathReportsNotOk) {
  CsvWriter w("/nonexistent-dir/x.csv");
  EXPECT_FALSE(w.ok());
}

TEST_F(CsvTest, DoubleHeaderAborts) {
  CsvWriter w(path_);
  w.header({"a"});
  EXPECT_DEATH(w.header({"b"}), "header");
}

}  // namespace
}  // namespace dmsched
