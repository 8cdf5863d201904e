#include "workload/trace_replay.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace hpcc::workload {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

[[noreturn]] void Fail(size_t line, const std::string& what) {
  throw std::runtime_error("flow trace line " + std::to_string(line) + ": " +
                           what);
}

uint64_t ParseU64(const std::string& field, size_t line,
                  const char* what) {
  if (field.empty()) Fail(line, std::string("empty ") + what);
  uint64_t v = 0;
  for (char c : field) {
    if (!std::isdigit(static_cast<unsigned char>(c)))
      Fail(line, std::string("non-numeric ") + what + " '" + field + "'");
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) Fail(line, std::string(what) + " overflow");
    v = v * 10 + d;
  }
  return v;
}

// Decimal microseconds -> integer picoseconds, exactly (no floating point:
// the round-trip test requires Format(Parse(x)) == x at ps resolution, and
// 1 ps is the 6th decimal of a microsecond).
sim::TimePs ParseArrivalUs(const std::string& field, size_t line) {
  const size_t dot = field.find('.');
  const std::string whole_s = dot == std::string::npos ? field
                                                       : field.substr(0, dot);
  std::string frac_s = dot == std::string::npos ? "" : field.substr(dot + 1);
  if (frac_s.size() > 6)
    Fail(line, "arrival_us finer than 1 ps: '" + field + "'");
  frac_s.resize(6, '0');  // pad to exactly ps
  const uint64_t whole =
      whole_s.empty() ? 0 : ParseU64(whole_s, line, "arrival_us");
  const uint64_t frac = ParseU64(frac_s, line, "arrival_us fraction");
  return static_cast<sim::TimePs>(whole * 1'000'000 + frac);
}

}  // namespace

std::vector<TraceRecord> ParseFlowTrace(std::istream& in) {
  std::vector<TraceRecord> records;
  std::string line;
  size_t line_no = 0;
  bool saw_data = false;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string t = Trim(line);
    if (t.empty() || t[0] == '#') continue;
    // A leading header row ("arrival_us,...") is tolerated once.
    if (!saw_data && !std::isdigit(static_cast<unsigned char>(t[0])) &&
        t[0] != '.') {
      continue;
    }
    std::vector<std::string> fields;
    std::stringstream ss(t);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(Trim(field));
    if (fields.size() != 4)
      Fail(line_no, "expected 4 fields (arrival_us,src,dst,bytes), got " +
                        std::to_string(fields.size()));
    TraceRecord r;
    r.at = ParseArrivalUs(fields[0], line_no);
    r.src = static_cast<uint32_t>(ParseU64(fields[1], line_no, "src"));
    r.dst = static_cast<uint32_t>(ParseU64(fields[2], line_no, "dst"));
    r.bytes = ParseU64(fields[3], line_no, "bytes");
    if (r.src == r.dst) Fail(line_no, "src == dst");
    if (r.bytes == 0) Fail(line_no, "zero-byte flow");
    if (!records.empty() && r.at < records.back().at)
      Fail(line_no, "arrivals not sorted (non-decreasing arrival_us required)");
    records.push_back(r);
    saw_data = true;
  }
  return records;
}

std::vector<TraceRecord> LoadFlowTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open flow trace: " + path);
  return ParseFlowTrace(in);
}

std::string FormatFlowTrace(const std::vector<TraceRecord>& records) {
  std::string out = "arrival_us,src,dst,bytes\n";
  for (const TraceRecord& r : records) {
    const uint64_t whole = static_cast<uint64_t>(r.at) / 1'000'000;
    uint64_t frac = static_cast<uint64_t>(r.at) % 1'000'000;
    out += std::to_string(whole);
    if (frac != 0) {
      std::string f = std::to_string(frac);
      f.insert(f.begin(), 6 - f.size(), '0');
      while (f.back() == '0') f.pop_back();
      out += "." + f;
    }
    out += "," + std::to_string(r.src) + "," + std::to_string(r.dst) + "," +
           std::to_string(r.bytes) + "\n";
  }
  return out;
}

TraceReplaySource::TraceReplaySource(
    sim::Simulator* simulator,
    std::shared_ptr<const std::vector<TraceRecord>> records, FlowSink sink)
    : TrafficSource(simulator, /*seed=*/1),
      records_(std::move(records)),
      sink_(std::move(sink)) {}

sim::TimePs TraceReplaySource::first_activity() const {
  return records_->empty() ? std::numeric_limits<sim::TimePs>::max()
                           : records_->front().at;
}

void TraceReplaySource::ScheduleRecord() {
  if (emitted_ >= records_->size()) return;
  Schedule(kEmit, std::max((*records_)[emitted_].at, simulator_->now()));
}

void TraceReplaySource::Fire(int /*step*/) {
  const TraceRecord& r = (*records_)[emitted_];
  ++emitted_;
  sink_(r.src, r.dst, r.bytes, simulator_->now());
  ScheduleRecord();
}

}  // namespace hpcc::workload
