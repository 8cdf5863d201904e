// Tests for CSV export.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats/csv_writer.h"

namespace hpcc::stats {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(CsvWriter, Table) {
  const std::string path = TempPath("table.csv");
  ASSERT_TRUE(WriteTableCsv(path, {"run", "load", "p99"},
                            {{"a", "0.3", "1.5"}, {"b", "0.5", ""}}));
  EXPECT_EQ(Slurp(path), "run,load,p99\na,0.3,1.5\nb,0.5,\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, QuotesCellsPerRfc4180) {
  // Cells with a comma, quote, LF or CR are wrapped in quotes, and embedded
  // quotes are doubled; every other cell is written bare.
  const std::string path = TempPath("quoted.csv");
  ASSERT_TRUE(WriteTableCsv(
      path, {"run", "error"},
      {{"x[load=0.3,seed=1]", "say \"hi\""}, {"line\nbreak", "cr\rhere"}}));
  EXPECT_EQ(Slurp(path),
            "run,error\n"
            "\"x[load=0.3,seed=1]\",\"say \"\"hi\"\"\"\n"
            "\"line\nbreak\",\"cr\rhere\"\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, UnwritablePathFails) {
  EXPECT_FALSE(WriteTableCsv("/nonexistent-dir/x.csv", {"a"}, {}));
}

}  // namespace
}  // namespace hpcc::stats
