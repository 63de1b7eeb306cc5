#include "serve/engine.hpp"

#include <chrono>
#include <string>

#include "dyncg/query_machine.hpp"
#include "envelope/scenario_key.hpp"
#include "machine/machine.hpp"
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

}  // namespace

StatusOr<CachedResult> run_query(const Request& req) {
  const auto host_start = std::chrono::steady_clock::now();
  DYNCG_ASSERT(req.system.has_value(), "run_query needs a scenario");
  const MotionSystem& sys = *req.system;

  StatusOr<Query> query = query_of(req.op);
  if (!query.is_ok()) return query.status();
  StatusOr<MachinePlan> plan =
      plan_query_machine(query.value(), sys, req.machine);
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

  CostMeter meter(m.ledger());
  StatusOr<std::string> text = answer_query(
      m, query.value(), sys, QueryArgs{req.query, req.farthest, req.box});
  if (!text.is_ok()) return text.status();
  CachedResult out;
  out.text = std::move(text).value();
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
