#include "stats/csv_writer.h"

#include <cstdio>
#include <memory>

namespace hpcc::stats {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void WriteCell(std::FILE* f, const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) {
    std::fputs(cell.c_str(), f);
    return;
  }
  std::fputc('"', f);
  for (const char c : cell) {
    if (c == '"') std::fputc('"', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

void WriteRow(std::FILE* f, const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    WriteCell(f, cells[i]);
  }
  std::fputc('\n', f);
}

}  // namespace

bool WriteTableCsv(const std::string& path,
                   const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& rows) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (f == nullptr) return false;
  WriteRow(f.get(), header);
  for (const auto& row : rows) WriteRow(f.get(), row);
  // A truncated file (e.g. disk full) must not report success.
  return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
}

}  // namespace hpcc::stats
