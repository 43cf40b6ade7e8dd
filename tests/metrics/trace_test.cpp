#include "metrics/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace p2plab::metrics {
namespace {

// Whole file, or "" if it cannot be read.
std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream content;
  content << file.rdbuf();
  return content.str();
}

TEST(CsvWriter, MirrorsToResultsDir) {
  char dir_template[] = "/tmp/p2plab_trace_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir_template, 1);
  {
    CsvWriter csv("unit_test_table", {"a", "b"});
    csv.row(std::vector<double>{1.0, 2.5});
    csv.row(std::vector<std::string>{"x", "y"});
    csv.comment("note");
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  unsetenv("P2PLAB_RESULTS_DIR");

  const std::string content =
      slurp(std::string(dir_template) + "/unit_test_table.csv");
  std::filesystem::remove_all(dir_template);
  EXPECT_EQ(content, "a,b\n1,2.5\nx,y\n# note\n");
}

TEST(CsvWriter, NoEnvNoFile) {
  unsetenv("P2PLAB_RESULTS_DIR");
  CsvWriter csv("unmirrored", {"only"});
  csv.row(std::vector<double>{42.0});
  EXPECT_EQ(csv.rows_written(), 1u);
}

TEST(CsvWriter, UnwritableResultsDirFallsBackToStdout) {
  setenv("P2PLAB_RESULTS_DIR", "/nonexistent/no/such/dir", 1);
  {
    CsvWriter csv("unwritable", {"a"});
    csv.row(std::vector<double>{1.0});  // must not crash; stdout still works
    EXPECT_EQ(csv.rows_written(), 1u);
  }
  unsetenv("P2PLAB_RESULTS_DIR");
}

TEST(CsvWriter, HeaderOnlyTableStillFlushes) {
  char dir_template[] = "/tmp/p2plab_trace_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir_template, 1);
  { CsvWriter csv("empty_table", {"a", "b"}); }  // zero rows
  unsetenv("P2PLAB_RESULTS_DIR");
  const std::string content =
      slurp(std::string(dir_template) + "/empty_table.csv");
  std::filesystem::remove_all(dir_template);
  EXPECT_EQ(content, "a,b\n");
}

TEST(CsvWriter, RowWidthChecked) {
  unsetenv("P2PLAB_RESULTS_DIR");
  CsvWriter csv("strict", {"a", "b"});
  EXPECT_DEATH(csv.row(std::vector<double>{1.0}), "width");
}

TEST(CsvWriter, NumbersFormattedCompactly) {
  char dir_template[] = "/tmp/p2plab_trace_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir_template, 1);
  {
    CsvWriter csv("fmt", {"v"});
    csv.row(std::vector<double>{100.0});
    csv.row(std::vector<double>{0.125});
    csv.row(std::vector<double>{1e9});
  }
  unsetenv("P2PLAB_RESULTS_DIR");
  const std::string content = slurp(std::string(dir_template) + "/fmt.csv");
  std::filesystem::remove_all(dir_template);
  EXPECT_EQ(content, "v\n100\n0.125\n1000000000\n");
}

}  // namespace
}  // namespace p2plab::metrics
