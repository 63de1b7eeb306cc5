#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "dyncg/allpairs.hpp"
#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "envelope/scenario_key.hpp"
#include "machine/machine.hpp"
#include "steady/machine_geometry.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace dyncg {
namespace serve {

namespace {

// Per-request distributions.  The simulated figures are ledger deltas —
// pure functions of the scenario, so their histograms are deterministic at
// any DYNCG_THREADS even though observations happen on pool threads (shard
// sums are order-independent).  Host latency is wall clock and marked
// noisy.  24 power-of-two buckets cover 1 .. 8M rounds/messages/ops.
struct QueryMetrics {
  metrics::Histogram& rounds = metrics::histogram(
      "serve.query.rounds", "Simulated rounds per computed query.",
      metrics::Stability::kDeterministic, metrics::pow2_bounds(24));
  metrics::Histogram& messages = metrics::histogram(
      "serve.query.messages", "Simulated messages per computed query.",
      metrics::Stability::kDeterministic, metrics::pow2_bounds(24));
  metrics::Histogram& local_ops = metrics::histogram(
      "serve.query.local_ops", "Simulated local operations per computed query.",
      metrics::Stability::kDeterministic, metrics::pow2_bounds(24));
  metrics::Histogram& host_ns = metrics::histogram(
      "serve.query.host_ns", "Host nanoseconds per computed query.",
      metrics::Stability::kHostNoisy,
      {1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000,
       10000000000ull});
};

QueryMetrics& query_metrics() {
  static QueryMetrics* m = new QueryMetrics;  // leaked, like the registry
  return *m;
}

// printf-exact rendering: every format string below is the one dyncg_cli
// uses, so served text and CLI stdout agree to the byte.
template <class... Args>
void appendf(std::string* out, const char* fmt, Args... args) {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n > 0) out->append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

}  // namespace

StatusOr<CachedResult> run_query(const Request& req) {
  const auto host_start = std::chrono::steady_clock::now();
  DYNCG_ASSERT(req.system.has_value(), "run_query needs a scenario");
  const MotionSystem& sys = *req.system;

  // The machine dyncg_cli builds for the same scenario: both plan through
  // dyncg/query_machine.hpp.
  StatusOr<MachinePlan> plan = plan_request_machine(req);
  if (!plan.is_ok()) return plan.status();
  Machine m = build_machine(plan.value());
  if (req.has_faults) m.set_fault_plan(&req.faults);

  // Request-tagged span with the machine's ledger attached, so a trace of
  // a serving run attributes rounds/messages to the fingerprint it served.
  // The tag allocates, so it is built only when tracing is on (the span
  // itself is free when disabled).
  std::string span_name;
  if (trace::enabled()) {
    span_name = "serve.query#" + fingerprint_hex(req.fingerprint);
  }
  trace::Span span(span_name.empty() ? "serve.query" : span_name.c_str(),
                   &m.ledger());

  CachedResult out;
  CostMeter meter(m.ledger());
  switch (req.op) {
    case Op::kNeighbor: {
      StatusOr<NeighborSequence> seq =
          try_neighbor_sequence(m, sys, req.query, req.farthest);
      if (!seq.is_ok()) return seq.status();
      out.text = seq.value().to_string() + "\n";
      break;
    }
    case Op::kPairs: {
      PairSequence seq = closest_pair_sequence(m, sys, req.farthest);
      out.text = seq.to_string() + "\n";
      break;
    }
    case Op::kCollisions: {
      StatusOr<CollisionReport> rep = try_collision_times(m, sys, req.query);
      if (!rep.is_ok()) return rep.status();
      if (rep.value().events.empty()) {
        appendf(&out.text, "no collisions for P%zu\n", req.query);
      }
      for (const CollisionEvent& e : rep.value().events) {
        appendf(&out.text, "t = %10.4f  P%zu <-> P%zu\n", e.time, req.query,
                e.other);
      }
      break;
    }
    case Op::kHullwhen: {
      StatusOr<IntervalSet> hit =
          try_hull_membership_intervals(m, sys, req.query);
      if (!hit.is_ok()) return hit.status();
      appendf(&out.text, "P%zu is a hull vertex during ", req.query);
      out.text += hit.value().to_string() + "\n";
      break;
    }
    case Op::kContain: {
      if (req.has_box) {
        StatusOr<IntervalSet> J = try_containment_intervals(m, sys, req.box);
        if (!J.is_ok()) return J.status();
        out.text = "fits the box during " + J.value().to_string() + "\n";
      } else {
        SmallestCube cube = smallest_enclosing_cube(m, sys);
        appendf(&out.text, "smallest enclosing cube: edge %.4f at t = %.4f\n",
                cube.edge, cube.time);
      }
      break;
    }
    case Op::kSteady: {
      appendf(&out.text, "steady NN of P%zu: P%zu\n", req.query,
              machine_steady_neighbor(m, sys, req.query, req.farthest));
      out.text += "steady hull: ";
      for (std::size_t id : machine_steady_hull_ids(m, sys)) {
        appendf(&out.text, "P%zu ", id);
      }
      out.text += "\n";
      auto far = machine_steady_farthest_pair(m, sys);
      appendf(&out.text, "steady farthest pair: (P%zu, P%zu)\n", far.a,
              far.b);
      break;
    }
    case Op::kStats:
    case Op::kPing:
    case Op::kMetrics:
    case Op::kFlushTrace:
    case Op::kFleetOpen:    // fleet ops run in the server's sequential
    case Op::kFleetUpdate:  // pass (serve/fleet.hpp), never the engine
    case Op::kFleetQuery:
    case Op::kFleetClose:
      return Status::invalid_argument("op carries no scenario to run");
  }
  out.cost = meter.elapsed();
  out.topology = m.topology().name();
  out.pes = m.size();
  QueryMetrics& qm = query_metrics();
  qm.rounds.observe(out.cost.rounds);
  qm.messages.observe(out.cost.messages);
  qm.local_ops.observe(out.cost.local_ops);
  qm.host_ns.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_start)
          .count()));
  return out;
}

}  // namespace serve
}  // namespace dyncg
