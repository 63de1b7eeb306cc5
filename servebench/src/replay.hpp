#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine/cost.hpp"
#include "workload.hpp"

// In-process references and the traced replay.  Both call the serving
// layers' public functions directly (serve::parse_request, ResultCache,
// the machine factories, serve::run_query, serve::render_*,
// FleetRegistry::handle) on the very lines the socket run sends.
namespace servebench {

std::uint64_t response_hash(const std::string& line);
// Does a response line (no request id) carry status OK?
bool is_ok_response(const std::string& line);

// What the server must answer to one line of a phase.
struct Reference {
  std::uint64_t hash = 0;  // response_hash of the exact expected line
  bool ok = false;         // expected status is OK
  dyncg::CostSnapshot cost;
};

struct References {
  // Per measured line (Plan::measured.lines).
  std::vector<Reference> measured;
  // fleet_churn: fleet_query responses compared with canonical_rebuild over
  // the benchmark's mirror of the session, and how many of them disagreed.
  std::size_t canonical_checks = 0;
  std::size_t canonical_mismatches = 0;
  std::vector<std::string> problems;  // first few, for the report
};

// cold_solve: run_query on every line, rendered as a cache miss.
// hot_repeat: run_query on every working-set line, rendered as a hit.
// fleet_churn: one FleetRegistry per session fed the session's lines in
// order; `canonical_per_session` evenly spaced queries of each session,
// its last one included, are also checked against canonical_rebuild (a
// rebuild of a few hundred members costs tens of milliseconds, so not
// every query).  Uses `workers` threads.
References compute_references(const Plan& plan, unsigned workers,
                              std::size_t canonical_per_session);

// One row of the span report.
struct SpanRow {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

struct ReplayResult {
  double wall_s = 0.0;      // measured part, separate machine builds excluded
  double cpu_s = 0.0;       // process CPU of the same part
  double build_s = 0.0;     // the separate machine-factory calls
  std::size_t engine_calls = 0;
  double pes_sum = 0.0;     // PEs over engine calls
  // Traced replay only: per span name (program spans keep their name up
  // to any '#' request tag), self time = total minus direct children.
  std::map<std::string, SpanRow> spans;
  // Inclusive time of each layer group (ops.sort, envelope.level, ...),
  // counting only spans with no ancestor in the same group.
  std::map<std::string, double> group_ms;
  double unattributed_ms = 0.0;  // wall not under any top-level span
};

// Replay the plan single-threaded in this process: warm-up untimed, then
// measured rounds [0, rounds) of `of` (Phase::round; lanes round-robin)
// timed, with tracing on if `traced`.  Per-layer spans are recorded around
// each layer call.
ReplayResult replay(const Plan& plan, bool traced, std::size_t rounds,
                    std::size_t of);

}  // namespace servebench
