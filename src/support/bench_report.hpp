#pragma once

#include <optional>
#include <string>
#include <vector>

#include "machine/faults.hpp"
#include "support/json.hpp"

// The BENCH_<name>.json report (docs/OBSERVABILITY.md), written by the bench
// harness (bench/common.hpp) and by dyncg_load (BENCH_serve.json).  Both
// share its head (schema, revision, config, faults, host time) and its
// `tables`, which dyncg_bench_diff gates against baseline/.
namespace dyncg {

// Schema version of the reports; bump on layout changes and document them
// in docs/OBSERVABILITY.md.
// v2: added the "faults" section (active fault spec + fault counters).
inline constexpr int kBenchJsonSchemaVersion = 2;

// Least-squares slope of log(y) against log(x): the measured growth
// exponent.  A y <= 0 is fitted as 1 (log 0 is undefined).
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

// One table row: measured rounds over an n sweep, and the paper's claim.
struct BenchRow {
  std::string label;
  std::vector<double> n;
  std::vector<double> rounds;
  std::string claimed;  // the paper's Theta(...)
};

struct BenchTable {
  std::string title;
  std::vector<BenchRow> rows;
};

struct BenchHeader {
  std::string name;
  // config.parallel_sort; left out of reports whose run sorts nothing.
  std::optional<bool> parallel_sort;
  std::string fault_spec;
  FaultCountersSnapshot faults;
  double host_seconds = 0;
};

// Opens the report object and writes schema_version, kind, name, git_rev,
// config (threads, parallel_sort, dispatch), faults and host_seconds.  The
// caller then adds its own sections, write_bench_tables and end_object().
void begin_bench_report(json::Writer* w, const BenchHeader& header);

// The "tables" array; a row's slope is 0 when it has fewer than two points.
void write_bench_tables(json::Writer* w, const std::vector<BenchTable>& tables);

// The document plus a newline; false when `path` cannot be written.
bool write_json_file(const std::string& path, const json::Writer& w);

}  // namespace dyncg
