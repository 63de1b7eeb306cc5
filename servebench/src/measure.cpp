#include "measure.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace servebench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_percentile(std::vector<double> v, std::size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n > beyond) {
    t.value = v[n - 1 - beyond];
    t.beyond = beyond;
    t.percentile = 100.0 * static_cast<double>(n - beyond) /
                   static_cast<double>(n);
    t.qualified = true;
  } else {
    t.value = v.back();
    t.percentile = 100.0;
  }
  return t;
}

std::size_t tail_beyond(std::size_t samples) {
  return std::max<std::size_t>(10, samples / 20);
}

std::optional<std::uint64_t> parse_stat_cpu_ticks(const std::string& stat) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream in(stat.substr(close + 1));
  // After the command name: field 3 (state) onwards; utime/stime are the
  // 12th and 13th tokens from here.
  std::string tok;
  std::uint64_t utime = 0, stime = 0;
  for (int field = 3; field <= 15; ++field) {
    if (!(in >> tok)) return std::nullopt;
    if (field == 14 || field == 15) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
      if (end == tok.c_str() || *end != '\0') return std::nullopt;
      (field == 14 ? utime : stime) = v;
    }
  }
  return utime + stime;
}

std::optional<std::uint64_t> parse_status_kb(const std::string& status,
                                             const std::string& key) {
  std::istringstream in(status);
  std::string line;
  const std::string prefix = key + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    std::uint64_t kb = 0;
    std::string unit;
    if (fields >> kb >> unit && unit == "kB") return kb;
    return std::nullopt;
  }
  return std::nullopt;
}

namespace {
std::string proc_path(int pid, const char* leaf) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
         "/" + leaf;
}
}  // namespace

std::optional<double> process_cpu_seconds(int pid) {
  const std::optional<std::uint64_t> ticks =
      parse_stat_cpu_ticks(read_file(proc_path(pid, "stat")));
  if (!ticks) return std::nullopt;
  return static_cast<double>(*ticks) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::optional<double> process_peak_rss_mb(int pid) {
  const std::optional<std::uint64_t> kb =
      parse_status_kb(read_file(proc_path(pid, "status")), "VmHWM");
  if (!kb) return std::nullopt;
  return static_cast<double>(*kb) / 1024.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

}  // namespace servebench
