#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

// Statistics and process readers shared by the benchmark and its self-tests.
namespace servebench {

// Median of `v` (mean of the two middle values for even sizes); 0 when
// empty.  Takes a copy: callers keep their samples in arrival order.
double median(std::vector<double> v);

// The highest percentile that still has at least `beyond` samples strictly
// after it in sorted order: for n sorted samples that is the value at index
// n-1-beyond, the (n-beyond)/n quantile.  With n <= beyond no percentile
// qualifies and the maximum is reported with `qualified` false.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // in [0, 100]
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples after `value` in sorted order
  bool qualified = false;
};
Tail tail_percentile(std::vector<double> v, std::size_t beyond = 10);

// How many samples the reported tail keeps beyond it: at least 10, and
// enough to stop at p95 once a run has 200 samples or more.  On a shared
// host a long run's p99 sits on the edge of the few-percent of requests
// delayed by vCPU preemption, and flips between runs (six fleet_churn runs:
// p99 spread 0.52 of its median, p95 0.18).
std::size_t tail_beyond(std::size_t samples);

// User+system CPU ticks (fields 14 and 15) from the text of /proc/<pid>/stat.
// The command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
std::optional<std::uint64_t> parse_stat_cpu_ticks(const std::string& stat);
// A "Key:   1234 kB" line from the text of /proc/<pid>/status, in kB.
std::optional<std::uint64_t> parse_status_kb(const std::string& status,
                                             const std::string& key);

// Live readers over /proc for a process id (0 = this process).
std::optional<double> process_cpu_seconds(int pid);
std::optional<double> process_peak_rss_mb(int pid);  // VmHWM

std::string read_file(const std::string& path);

}  // namespace servebench
