#include "support/bench_report.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "poly/kernels.hpp"
#include "support/build_info.hpp"
#include "support/thread_pool.hpp"

namespace dyncg {

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    double lx = std::log(x[i]), ly = std::log(y[i] > 0 ? y[i] : 1.0);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = static_cast<double>(n) * sxx - sx * sx;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

void begin_bench_report(json::Writer* w, const BenchHeader& header) {
  w->begin_object();
  w->key("schema_version");
  w->value(std::int64_t{kBenchJsonSchemaVersion});
  w->key("kind");
  w->value("dyncg-bench");
  w->key("name");
  w->value(header.name);
  w->key("git_rev");
  w->value(git_revision());
  w->key("config");
  w->begin_object();
  w->key("threads");
  w->value(std::uint64_t{host_threads()});
  if (header.parallel_sort.has_value()) {
    w->key("parallel_sort");
    w->value(*header.parallel_sort);
  }
  // Numeric-kernel dispatch target the run used ("scalar" or "avx2"); the
  // ledger figures must not depend on it (exactness contract,
  // docs/PERFORMANCE.md#simd-kernels), but host_seconds does.
  w->key("dispatch");
  w->value(kernels::active_simd_name());
  w->end_object();
  w->key("faults");
  w->begin_object();
  w->key("spec");
  w->value(header.fault_spec);
  const FaultCountersSnapshot& fc = header.faults;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"link_down_hits", fc.link_down_hits}, {"pe_down_hits", fc.pe_down_hits},
      {"words_dropped", fc.words_dropped},   {"retries", fc.retries},
      {"detour_rounds", fc.detour_rounds},   {"remaps", fc.remaps},
  };
  for (const auto& [key, value] : counters) {
    w->key(key);
    w->value(value);
  }
  w->end_object();
  w->key("host_seconds");
  w->value(header.host_seconds);
}

void write_bench_tables(json::Writer* w,
                        const std::vector<BenchTable>& tables) {
  w->key("tables");
  w->begin_array();
  for (const BenchTable& t : tables) {
    w->begin_object();
    w->key("title");
    w->value(t.title);
    w->key("rows");
    w->begin_array();
    for (const BenchRow& r : t.rows) {
      w->begin_object();
      w->key("problem");
      w->value(r.label);
      w->key("claim");
      w->value(r.claimed);
      w->key("slope");
      w->value(r.n.size() >= 2 ? loglog_slope(r.n, r.rounds) : 0.0);
      w->key("points");
      w->begin_array();
      for (std::size_t i = 0; i < r.n.size(); ++i) {
        w->begin_object();
        w->key("n");
        w->value(r.n[i]);
        w->key("rounds");
        w->value(r.rounds[i]);
        w->end_object();
      }
      w->end_array();
      w->end_object();
    }
    w->end_array();
    w->end_object();
  }
  w->end_array();
}

bool write_json_file(const std::string& path, const json::Writer& w) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace dyncg
