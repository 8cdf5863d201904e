// CSV export: a rectangular table of pre-formatted cells, the shape the
// scenario sweep runner aggregates its per-run results into.
#pragma once

#include <string>
#include <vector>

namespace hpcc::stats {

// Generic rectangular table: one header row plus pre-formatted cells. Cells
// containing commas, quotes or newlines are quoted per RFC 4180. Returns
// false if the file cannot be opened or written.
bool WriteTableCsv(const std::string& path,
                   const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& rows);

}  // namespace hpcc::stats
