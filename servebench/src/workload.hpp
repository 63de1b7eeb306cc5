#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dyncg/motion.hpp"

// Request generation for the three servebench workloads.  Everything here
// is a pure function of (workload, seed, seconds, connections): the same
// arguments give the same request bytes, and the server only ever sees the
// generated lines.
namespace servebench {

enum class Workload { kColdSolve, kHotRepeat, kFleetChurn };
std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

// Request classes behind write_p50_ms / read_p50_ms (README.md#metrics).
enum RequestClass : std::uint8_t { kWrite = 0, kRead = 1 };

// One closed-loop phase.  Each lane is an ordered list of indices into
// `lines`.  A single lane is a shared queue every connection pulls from
// (work-conserving); otherwise lane c belongs to connection c, so requests
// of one lane are answered strictly in order.
struct Phase {
  std::vector<std::string> lines;
  std::vector<std::uint8_t> cls;  // RequestClass per line
  std::vector<std::vector<std::size_t>> lanes;
  std::size_t max_connections = 0;  // 0 = every connection
  std::size_t requests() const;
  // Round r of `rounds`: the r-th of `rounds` contiguous slices of every
  // lane, so each round keeps the lanes' order and the same mix.
  std::vector<std::vector<std::size_t>> round(std::size_t r,
                                              std::size_t rounds) const;
};

// One fleet_update (inserts, erases, optional advance to `now`) or
// fleet_query, as the benchmark's mirror of the session sees it.
struct FleetOp {
  bool query = false;
  std::vector<std::pair<std::uint64_t, dyncg::Trajectory>> inserts;
  std::vector<std::uint64_t> erases;
  bool advance = false;
  double now = 0.0;  // session time after the op
};

struct FleetStream {
  std::string name;               // "fleet-<i>", the server's open order
  std::vector<FleetOp> prefill;   // set-up updates, before the measured ops
  std::vector<FleetOp> ops;       // measured ops, in lane order
};

struct Plan {
  Workload workload = Workload::kColdSolve;
  std::uint64_t seed = 0;
  std::size_t connections = 1;
  // Run in order after the first ping on every set-up; not measured.
  std::vector<Phase> warmup;
  Phase measured;
  std::vector<FleetStream> fleets;  // fleet_churn only, one per connection
};

// Fleet session shape and sizing (fleet_churn).
inline constexpr std::size_t kFleetDim = 2;
inline constexpr int kFleetDegree = 2;
inline constexpr std::size_t kFleetMaxMembers = 1024;  // server flag too
inline constexpr const char* kFleetOpenLine =
    "{\"op\":\"fleet_open\",\"d\":2,\"k\":2,\"machine\":\"mesh\"}";

// Measured request count for a run of `seconds`: the workload's nominal
// rate on the reference host times `seconds`, rounded to whole cycles, so
// every run of the same arguments does identical work.
std::size_t measured_requests(Workload w, double seconds,
                              std::size_t connections);

// Requests in one cycle of cold_solve's machine shapes.
std::size_t cold_cycle_size();

Plan make_plan(Workload w, std::uint64_t seed, double seconds,
               std::size_t connections);

// Wire helpers shared with the oracle: %.17g numbers (exact round trip)
// and the fleet_update / fleet_query lines for one op.
std::string exact_num(double v);
std::string fleet_line(const std::string& fleet, const FleetOp& op);

}  // namespace servebench
