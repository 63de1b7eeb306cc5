#include "replay.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>

#include "dyncg/allpairs.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "envelope/dynamic_envelope.hpp"
#include "envelope/scenario_key.hpp"
#include "loop.hpp"
#include "machine/machine.hpp"
#include "machine/other_topologies.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "serve/fleet.hpp"
#include "serve/protocol.hpp"
#include "support/ackermann.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace servebench {

using dyncg::CostSnapshot;
using dyncg::Machine;
namespace serve = dyncg::serve;
namespace trace = dyncg::trace;

std::uint64_t response_hash(const std::string& line) {
  return std::hash<std::string_view>{}(line);
}

bool is_ok_response(const std::string& line) {
  return line.rfind("{\"status\":\"OK\"", 0) == 0;
}

namespace {

constexpr std::size_t kCacheCap = 4096;  // the server's default --cache-cap

void parallel_tasks(std::size_t n, unsigned workers,
                    const std::function<void(std::size_t)>& task) {
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) task(i);
  };
  std::vector<std::thread> pool;
  for (unsigned w = 1; w < std::max(1u, workers); ++w) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
}

// The "cost" object of a rendered response, or zeros.
CostSnapshot response_cost(const std::string& line) {
  CostSnapshot c;
  const std::size_t at = line.find("\"cost\":{");
  if (at == std::string::npos) return c;
  const std::size_t open = at + 7;
  const std::size_t close = line.find('}', open);
  dyncg::json::Value v;
  if (close == std::string::npos ||
      !dyncg::json::parse(line.substr(open, close - open + 1), &v)) {
    return c;
  }
  auto get = [&](const char* k) -> std::uint64_t {
    const dyncg::json::Value* f = v.find(k);
    return f != nullptr && f->is_number() ? static_cast<std::uint64_t>(f->number)
                                          : 0;
  };
  c.rounds = get("rounds");
  c.messages = get("messages");
  c.local_ops = get("local_ops");
  return c;
}

Reference geometric_reference(const std::string& line, bool hit) {
  Reference ref;
  dyncg::StatusOr<serve::Request> req = serve::parse_request(line);
  if (!req.is_ok()) {
    ref.hash = response_hash(serve::render_error("", req.status()));
    return ref;
  }
  dyncg::StatusOr<serve::CachedResult> res = serve::run_query(req.value());
  if (!res.is_ok()) {
    ref.hash = response_hash(serve::render_error("", res.status()));
    return ref;
  }
  ref.ok = true;
  ref.cost = res.value().cost;
  ref.hash = response_hash(serve::render_result(
      "", req.value().op, res.value(), hit, req.value().fingerprint));
  return ref;
}

std::string handle_fleet(serve::FleetRegistry& reg, const std::string& line) {
  dyncg::StatusOr<serve::Request> req = serve::parse_request(line);
  if (!req.is_ok()) return serve::render_error("", req.status());
  dyncg::StatusOr<std::string> out = reg.handle(req.value());
  return out.is_ok() ? out.value() : serve::render_error("", out.status());
}

// Does `response` (a fleet_query answer) equal the from-scratch rebuild of
// the mirrored member set at `now`?
bool canonical_match(const std::string& response,
                     const std::map<std::uint64_t, dyncg::Trajectory>& mirror,
                     double now) {
  dyncg::json::Value v;
  if (!dyncg::json::parse(response, &v)) return false;
  const dyncg::json::Value* result = v.find("result");
  const dyncg::json::Value* key = v.find("key");
  if (result == nullptr || key == nullptr) return false;
  const dyncg::Trajectory ref = serve::fleet_origin(kFleetDim);
  std::vector<std::pair<std::uint64_t, dyncg::Polynomial>> members;
  members.reserve(mirror.size());
  for (const auto& [id, point] : mirror) {
    members.emplace_back(id, serve::fleet_score(point, ref));
  }
  dyncg::DynamicEnvelope oracle = dyncg::canonical_rebuild(
      std::move(members), now, /*take_min=*/true,
      serve::fleet_s_bound(kFleetDegree));
  return result->string == oracle.result_string() &&
         key->string == dyncg::fingerprint_hex(oracle.state_fingerprint());
}

void apply(std::map<std::uint64_t, dyncg::Trajectory>* mirror,
           const FleetOp& op) {
  for (std::uint64_t id : op.erases) mirror->erase(id);
  for (const auto& [id, point] : op.inserts) mirror->emplace(id, point);
}

}  // namespace

References compute_references(const Plan& plan, unsigned workers,
                              std::size_t canonical_per_session) {
  References refs;
  const Phase& m = plan.measured;
  refs.measured.resize(m.lines.size());
  std::mutex mu;
  auto problem = [&](std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    if (refs.problems.size() < 8) refs.problems.push_back(std::move(what));
  };
  if (plan.workload != Workload::kFleetChurn) {
    const bool hit = plan.workload == Workload::kHotRepeat;
    parallel_tasks(m.lines.size(), workers, [&](std::size_t i) {
      refs.measured[i] = geometric_reference(m.lines[i], hit);
      if (!refs.measured[i].ok) problem("reference failed: " + m.lines[i]);
    });
    return refs;
  }
  std::atomic<std::size_t> checks{0}, mismatches{0};
  parallel_tasks(plan.fleets.size(), workers, [&](std::size_t s) {
    const FleetStream& fs = plan.fleets[s];
    serve::FleetRegistry reg(serve::FleetOptions{16, kFleetMaxMembers});
    // Open sessions 1..s+1 so this registry's names match the server's.
    for (std::size_t i = 0; i <= s; ++i) handle_fleet(reg, kFleetOpenLine);
    std::map<std::uint64_t, dyncg::Trajectory> mirror;
    for (const FleetOp& op : fs.prefill) {
      if (!is_ok_response(handle_fleet(reg, fleet_line(fs.name, op)))) {
        problem("prefill failed on " + fs.name);
      }
      apply(&mirror, op);
    }
    const std::vector<std::size_t>& lane = m.lanes[s];
    std::size_t queries = 0;
    std::size_t total_queries = 0;
    for (const FleetOp& op : fs.ops) total_queries += op.query ? 1 : 0;
    const std::size_t stride = std::max<std::size_t>(
        1, total_queries / std::max<std::size_t>(1, canonical_per_session));
    for (std::size_t i = 0; i < lane.size(); ++i) {
      const FleetOp& op = fs.ops[i];
      const std::string out = handle_fleet(reg, m.lines[lane[i]]);
      Reference& ref = refs.measured[lane[i]];
      ref.hash = response_hash(out);
      ref.ok = is_ok_response(out);
      ref.cost = response_cost(out);
      if (!ref.ok) problem("reference failed: " + out);
      apply(&mirror, op);
      if (!op.query) continue;
      const bool last = ++queries == total_queries;
      if (queries % stride != 0 && !last) continue;
      ++checks;
      if (!canonical_match(out, mirror, op.now)) {
        ++mismatches;
        problem("canonical_rebuild mismatch on " + fs.name + " query " +
                std::to_string(queries));
      }
    }
  });
  refs.canonical_checks = checks;
  refs.canonical_mismatches = mismatches;
  return refs;
}

// ---- traced replay --------------------------------------------------------

namespace {

Machine build_machine(const serve::Request& req) {
  const dyncg::MotionSystem& sys = *req.system;
  auto generic = [&](std::size_t cap) {
    if (req.machine == "hypercube") return Machine(dyncg::make_hypercube_for(cap));
    if (req.machine == "ccc") return Machine(dyncg::make_ccc_for(cap));
    if (req.machine == "shuffle") {
      return Machine(dyncg::make_shuffle_exchange_for(cap));
    }
    return Machine(dyncg::make_mesh_for(cap));
  };
  const bool mesh = req.machine == "mesh";
  switch (req.op) {
    case serve::Op::kNeighbor:
      return generic(dyncg::lambda_upper_bound(
          dyncg::ceil_pow2(sys.size()), std::max(1, 2 * sys.motion_degree())));
    case serve::Op::kPairs:
      return mesh ? dyncg::allpairs_machine_mesh(sys)
                  : dyncg::allpairs_machine_hypercube(sys);
    case serve::Op::kHullwhen:
      return mesh ? dyncg::hull_membership_machine_mesh(sys)
                  : dyncg::hull_membership_machine_hypercube(sys);
    case serve::Op::kContain:
      return mesh ? dyncg::containment_machine_mesh(sys)
                  : dyncg::containment_machine_hypercube(sys);
    default:  // collisions, steady
      return generic(sys.size());
  }
}

const char* run_query_span(serve::Op op) {
  switch (op) {
    case serve::Op::kNeighbor: return "bench.engine.run_query.neighbor";
    case serve::Op::kPairs: return "bench.engine.run_query.pairs";
    case serve::Op::kCollisions: return "bench.engine.run_query.collisions";
    case serve::Op::kHullwhen: return "bench.engine.run_query.hullwhen";
    case serve::Op::kContain: return "bench.engine.run_query.contain";
    default: return "bench.engine.run_query.steady";
  }
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string group_of(const std::string& name) {
  static const std::map<std::string, std::string> groups = {
      {"ops.broadcast", "ops.broadcast"},
      {"ops.reduce", "ops.reduce"},
      {"ops.segmented_reduce", "ops.reduce"},
      {"ops.prefix", "ops.prefix"},
      {"ops.segmented_prefix", "ops.prefix"},
      {"ops.bitonic_sort", "ops.sort"},
      {"ops.bitonic_sort_slotted", "ops.sort"},
      {"ops.bitonic_merge", "ops.sort"},
      {"ops.odd_even_sort", "ops.sort"},
      {"ops.shearsort", "ops.sort"},
      {"ops.randomized_sort_model", "ops.sort"},
      {"envelope.parallel", "envelope.parallel"},
      {"envelope.level", "envelope.level"},
  };
  auto it = groups.find(name);
  return it == groups.end() ? std::string() : it->second;
}

// Fold the trace buffer into per-name rows and per-group inclusive times.
void fold_spans(const std::vector<trace::Event>& events, ReplayResult* out,
                double* top_level_ms) {
  std::vector<const trace::Event*> ev;
  for (const trace::Event& e : events) ev.push_back(&e);
  std::sort(ev.begin(), ev.end(), [](const trace::Event* a,
                                     const trace::Event* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->depth < b->depth;
  });
  struct Open {
    const trace::Event* e;
    std::string name, group;
    double child_ms = 0.0;
  };
  std::vector<Open> stack;
  std::map<std::string, int> active;
  auto close_top = [&] {
    Open& o = stack.back();
    const double dur = static_cast<double>(o.e->dur_ns) * 1e-6;
    out->spans[o.name].self_ms += dur - o.child_ms;
    if (!o.group.empty()) --active[o.group];
    stack.pop_back();
  };
  std::uint32_t tid = 0;
  for (const trace::Event* e : ev) {
    if (e->tid != tid) {
      while (!stack.empty()) close_top();
      tid = e->tid;
    }
    while (!stack.empty() && stack.back().e->depth >= e->depth) close_top();
    const double dur = static_cast<double>(e->dur_ns) * 1e-6;
    std::string name = e->name.substr(0, e->name.find('#'));
    SpanRow& row = out->spans[name];
    ++row.count;
    row.total_ms += dur;
    if (stack.empty()) *top_level_ms += dur;
    else stack.back().child_ms += dur;
    std::string group = group_of(name);
    if (!group.empty() && active[group]++ == 0) out->group_ms[group] += dur;
    stack.push_back(Open{e, std::move(name), std::move(group)});
  }
  while (!stack.empty()) close_top();
}

struct Replayer {
  serve::ResultCache cache{kCacheCap};
  serve::FleetRegistry fleets{serve::FleetOptions{16, kFleetMaxMembers}};
  ReplayResult* out = nullptr;
  bool timed = false;

  void line(const std::string& text) {
    dyncg::StatusOr<serve::Request> parsed = [&] {
      trace::Span s("bench.protocol.parse");
      return serve::parse_request(text);
    }();
    if (!parsed.is_ok()) return;
    const serve::Request& req = parsed.value();
    if (serve::is_fleet_op(req.op)) {
      trace::Span s(req.op == serve::Op::kFleetQuery   ? "bench.fleet.query"
                    : req.op == serve::Op::kFleetUpdate ? "bench.fleet.update"
                                                         : "bench.fleet.other");
      fleets.handle(req);
      return;
    }
    const serve::CachedResult* hit = [&] {
      trace::Span s("bench.cache.find");
      return cache.find(req.key);
    }();
    if (hit != nullptr) {
      trace::Span s("bench.protocol.render");
      serve::render_result("", req.op, *hit, true, req.fingerprint);
      return;
    }
    if (timed) {
      const std::int64_t t0 = now_ns();
      {
        trace::Span s("bench.machine.build");
        Machine m = build_machine(req);
      }
      out->build_s += static_cast<double>(now_ns() - t0) * 1e-9;
    }
    dyncg::StatusOr<serve::CachedResult> res = [&] {
      trace::Span s(run_query_span(req.op));
      return serve::run_query(req);
    }();
    if (!res.is_ok()) return;
    if (timed) {
      ++out->engine_calls;
      out->pes_sum += static_cast<double>(res.value().pes);
    }
    {
      trace::Span s("bench.cache.insert");
      cache.insert(req.key, res.value());
    }
    trace::Span s("bench.protocol.render");
    serve::render_result("", req.op, res.value(), false, req.fingerprint);
  }
};

// Lanes round-robin: each lane keeps its order (a fleet session's updates
// apply in order), lanes interleave as concurrent connections would.
template <class Fn>
void for_each_interleaved(const Phase& p,
                          const std::vector<std::vector<std::size_t>>& lanes,
                          Fn&& fn) {
  std::size_t longest = 0;
  for (const auto& lane : lanes) longest = std::max(longest, lane.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (const auto& lane : lanes) {
      if (i < lane.size()) fn(p.lines[lane[i]]);
    }
  }
}

}  // namespace

ReplayResult replay(const Plan& plan, bool traced, std::size_t rounds,
                    std::size_t of) {
  ReplayResult out;
  Replayer r;
  r.out = &out;
  for (const Phase& w : plan.warmup) {
    for_each_interleaved(w, w.lanes, [&](const std::string& l) { r.line(l); });
  }
  // Rounds [0, rounds) of `of` are the same prefix of every lane.
  std::vector<std::vector<std::size_t>> lanes;
  for (const auto& lane : plan.measured.lanes) {
    lanes.emplace_back(lane.begin(),
                       lane.begin() + static_cast<std::ptrdiff_t>(
                                          lane.size() * rounds / of));
  }
  trace::clear();
  if (traced) trace::enable();
  r.timed = true;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  for_each_interleaved(plan.measured, lanes,
                       [&](const std::string& l) { r.line(l); });
  const double raw_wall = static_cast<double>(now_ns() - t0) * 1e-9;
  out.cpu_s = cpu_seconds() - cpu0 - out.build_s;
  out.wall_s = raw_wall - out.build_s;
  if (traced) {
    trace::disable();
    double top_ms = 0.0;
    fold_spans(trace::snapshot(), &out, &top_ms);
    out.unattributed_ms = raw_wall * 1e3 - top_ms;
    trace::clear();
  }
  return out;
}

}  // namespace servebench
