#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/rng.hpp"

namespace servebench {

using dyncg::Polynomial;
using dyncg::Rng;
using dyncg::Trajectory;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "cold_solve") return Workload::kColdSolve;
  if (name == "hot_repeat") return Workload::kHotRepeat;
  if (name == "fleet_churn") return Workload::kFleetChurn;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdSolve: return "cold_solve";
    case Workload::kHotRepeat: return "hot_repeat";
    case Workload::kFleetChurn: return "fleet_churn";
  }
  return "?";
}

std::size_t Phase::requests() const {
  std::size_t n = 0;
  for (const auto& lane : lanes) n += lane.size();
  return n;
}

std::vector<std::vector<std::size_t>> Phase::round(std::size_t r,
                                                  std::size_t rounds) const {
  std::vector<std::vector<std::size_t>> out;
  for (const auto& lane : lanes) {
    const std::size_t lo = lane.size() * r / rounds;
    const std::size_t hi = lane.size() * (r + 1) / rounds;
    out.emplace_back(lane.begin() + static_cast<std::ptrdiff_t>(lo),
                     lane.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return out;
}

std::string exact_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

// One trajectory as the wire's array of coordinate polynomials.
void append_point(std::string* out, const Trajectory& t) {
  *out += '[';
  for (std::size_t c = 0; c < t.dimension(); ++c) {
    if (c > 0) *out += ',';
    *out += '[';
    const Polynomial& p = t.coordinate(c);
    for (int j = 0; j <= std::max(p.degree(), 0); ++j) {
      if (j > 0) *out += ',';
      *out += exact_num(p.coefficient(j));
    }
    *out += ']';
  }
  *out += ']';
}

// ---- cold_solve -----------------------------------------------------------

struct Shape {
  const char* op;
  const char* machine;
  std::size_t n;
};

// One cycle of machine shapes: every geometric op on mesh and hypercube,
// plus the CCC and shuffle-exchange machines where the op admits them.
// Sizes are chosen per op so each request costs the same order of host
// time (about 20-130 ms on the reference host): a batch waits for its
// slowest query, so a few very heavy shapes would make every latency
// figure depend on which requests happen to share a batch.  n still
// reaches the 4096 admission cap (neighbor, collisions, contain); pairs
// stays below 256 because it builds an n^2-PE machine.  CCC and
// shuffle-exchange stop at sizes whose machine stays within the
// topologies' simulable limits (2048 PEs for CCC, 2^12 for shuffle-
// exchange; a larger one aborts the server).
std::vector<Shape> cold_cycle() {
  std::vector<Shape> s;
  for (const char* m : {"mesh", "hypercube"}) {
    s.push_back({"neighbor", m, 2048});
    s.push_back({"neighbor", m, 4096});
    s.push_back({"collisions", m, 4096});
    s.push_back({"hullwhen", m, 1024});
    s.push_back({"hullwhen", m, 2048});
    s.push_back({"contain", m, 4096});
    s.push_back({"steady", m, 512});
    s.push_back({"steady", m, 1024});
    s.push_back({"pairs", m, 96});
    s.push_back({"pairs", m, 128});
  }
  for (const char* m : {"ccc", "shuffle"}) {
    s.push_back({"neighbor", m, 64});
    s.push_back({"collisions", m, 1024});
  }
  s.push_back({"steady", "ccc", 256});
  s.push_back({"steady", "shuffle", 1024});
  // A fixed interleave (independent of the run seed), so every seed sees
  // the same schedule.
  Rng order(0x5eedc01d);
  std::vector<std::size_t> perm = order.permutation(s.size());
  std::vector<Shape> out;
  for (std::size_t i : perm) out.push_back(s[i]);
  return out;
}

bool takes_query(const std::string& op) {
  return op == "neighbor" || op == "collisions" || op == "hullwhen" ||
         op == "steady";
}

// The "write" class of cold_solve: the envelope-heavy ops (all-pairs,
// hull membership, steady-state survey); the rest are the "read" class.
bool cold_heavy(const Shape& s) {
  const std::string op = s.op;
  return op == "pairs" || op == "hullwhen" || op == "steady";
}

std::string geometric_line(const std::string& op, const std::string& machine,
                           const std::string& scenario, std::size_t n,
                           Rng& rng) {
  std::string line = "{\"op\":\"" + op + "\",\"machine\":\"" + machine +
                     "\",\"scenario\":" + scenario;
  if (takes_query(op)) {
    line += ",\"query\":" +
            std::to_string(rng.uniform_int(0, static_cast<int>(n) - 1));
  }
  if ((op == "neighbor" || op == "pairs") && rng.uniform_int(0, 3) == 0) {
    line += ",\"farthest\":true";
  }
  if (op == "contain" && rng.uniform_int(0, 1) == 0) line += ",\"box\":[6,4]";
  return line + "}";
}

std::string generator_scenario(std::uint64_t seed, std::size_t n) {
  return "{\"seed\":" + std::to_string(seed) + ",\"n\":" + std::to_string(n) +
         "}";
}

void add_line(Phase* p, std::string line, std::uint8_t cls) {
  p->lines.push_back(std::move(line));
  p->cls.push_back(cls);
}

Plan cold_plan(std::uint64_t seed, std::size_t count) {
  Plan plan;
  const std::vector<Shape> cycle = cold_cycle();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  // Scenario seeds (seed mod 2^20) * 2^20 + i + 1 are distinct across
  // requests and across run seeds below 2^20, so no scenario ever repeats.
  const std::uint64_t base = (seed & ((1ull << 20) - 1)) << 20;
  Phase& m = plan.measured;
  m.lanes.emplace_back();
  for (std::size_t i = 0; i < count; ++i) {
    const Shape& s = cycle[i % cycle.size()];
    add_line(&m,
             geometric_line(s.op, s.machine,
                            generator_scenario(base + i + 1, s.n), s.n, rng),
             cold_heavy(s) ? kWrite : kRead);
    m.lanes[0].push_back(i);
  }
  // Warm-up: one cycle of the same shapes on scenario seeds from the top of
  // this run's range (never measured), so every code path the measured
  // phase takes has run once and set-up times work, not only a launch.
  Phase warm;
  warm.lanes.emplace_back();
  Rng warm_rng(seed * 0x9e3779b97f4a7c15ull + 2);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const Shape& s = cycle[i];
    add_line(&warm,
             geometric_line(s.op, s.machine,
                            generator_scenario(base + (1ull << 20) - 1 - i, s.n),
                            s.n, warm_rng),
             cold_heavy(s) ? kWrite : kRead);
    warm.lanes[0].push_back(i);
  }
  plan.warmup.push_back(std::move(warm));
  return plan;
}

// ---- hot_repeat -----------------------------------------------------------

constexpr std::size_t kHotWorkingSet = 256;  // well inside the 4096 cache

std::string inline_scenario(Rng& rng, std::size_t n, int k) {
  dyncg::MotionSystem sys = dyncg::random_motion_system(rng, n, 2, k, 4.0);
  std::string s = "{\"points\":[";
  for (std::size_t i = 0; i < sys.size(); ++i) {
    if (i > 0) s += ',';
    append_point(&s, sys.point(i));
  }
  return s + "]}";
}

// The working set: half inline scenarios (n in 16..1024, the data-carrying
// "write" class), half small generator scenarios (the "read" class).
Phase hot_working_set(std::uint64_t seed) {
  Phase ws;
  Rng rng(seed * 0xd1342543de82ef95ull + 7);
  const char* inline_ops[] = {"neighbor", "collisions", "hullwhen", "contain"};
  const char* gen_ops[] = {"neighbor", "collisions", "hullwhen",
                           "contain",  "steady",     "pairs"};
  const std::size_t inline_n[] = {16, 64, 256, 1024};
  const std::size_t gen_n[] = {8, 16, 32, 64};
  for (std::size_t i = 0; i < kHotWorkingSet / 2; ++i) {
    const std::size_t n = inline_n[i % 4];
    const std::string op = n <= 64 && i % 8 == 0 ? "pairs"
                                                 : inline_ops[(i / 4) % 4];
    const std::string machine = i % 2 == 0 ? "mesh" : "hypercube";
    const std::string scenario =
        inline_scenario(rng, n, 1 + static_cast<int>((i / 16) % 2));
    add_line(&ws, geometric_line(op, machine, scenario, n, rng), kWrite);
  }
  for (std::size_t i = 0; i < kHotWorkingSet / 2; ++i) {
    const std::size_t n = gen_n[i % 4];
    const std::string op = gen_ops[(i / 4) % 6];
    const std::string machine = i % 2 == 0 ? "mesh" : "hypercube";
    const std::uint64_t s = 1 + (rng.next_u64() & ((1ull << 40) - 1));
    add_line(&ws,
             geometric_line(op, machine, generator_scenario(s, n), n, rng),
             kRead);
  }
  return ws;
}

Plan hot_plan(std::uint64_t seed, std::size_t count) {
  Plan plan;
  Phase ws = hot_working_set(seed);
  Phase warm = ws;
  warm.lanes.assign(1, {});
  for (std::size_t i = 0; i < ws.lines.size(); ++i) warm.lanes[0].push_back(i);
  plan.warmup.push_back(std::move(warm));
  Rng rng(seed * 0xbf58476d1ce4e5b9ull + 3);
  ws.lanes.assign(1, {});
  for (std::size_t i = 0; i < count; ++i) {
    ws.lanes[0].push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(ws.lines.size()) - 1)));
  }
  plan.measured = std::move(ws);
  return plan;
}

// ---- fleet_churn ----------------------------------------------------------

constexpr std::size_t kPrefillMembers = 600;  // within kFleetMaxMembers
constexpr std::size_t kPrefillBatch = 50;
constexpr int kMembersTarget = 600;     // update mix reverts towards it
constexpr std::size_t kQueryEvery = 4;  // every 4th measured op is a query

// A member of the session's d = 2, k = 2 shape: per coordinate
// a + b t + c t^2 in absolute session time, with a, b, c small multiples
// of 1/64 (exact on the wire).
Trajectory fleet_point(Rng& rng) {
  std::vector<Polynomial> coords;
  for (std::size_t c = 0; c < kFleetDim; ++c) {
    coords.push_back(Polynomial({rng.uniform_int(-4096, 4096) / 64.0,
                                 rng.uniform_int(-512, 512) / 64.0,
                                 rng.uniform_int(-64, 64) / 64.0}));
  }
  return Trajectory(std::move(coords));
}

struct FleetGen {
  Rng rng;
  std::vector<std::uint64_t> live;
  std::uint64_t next_id = 1;
  double now = 0.0;

  explicit FleetGen(std::uint64_t seed) : rng(seed) {}

  void insert(FleetOp* op, int count) {
    for (int i = 0; i < count; ++i) {
      op->inserts.emplace_back(next_id, fleet_point(rng));
      live.push_back(next_id++);
    }
  }
  void erase(FleetOp* op, int count) {
    for (int i = 0; i < count && !live.empty(); ++i) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      op->erases.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  // Small steps (multiples of 2^-15): a long run covers only a few time
  // units, so the envelope ahead of `now` keeps a stationary shape instead
  // of thinning out to the few members that stay near the reference.
  void advance(FleetOp* op) {
    now += rng.uniform_int(1, 8) / 32768.0;
    op->advance = true;
  }

  // One measured update: inserts, erases or a pure advance.  The insert
  // share leans against the distance from kMembersTarget, so the member
  // count stays near it (mean-reverting) for the whole run.
  FleetOp update() {
    FleetOp op;
    const int lean = (kMembersTarget - static_cast<int>(live.size())) / 10;
    const int insert_below = std::clamp(40 + lean, 10, 70);
    const int roll = rng.uniform_int(0, 99);
    if (roll < insert_below) {
      insert(&op, rng.uniform_int(1, 3));
    } else if (roll < 80) {
      erase(&op, rng.uniform_int(1, 3));
    } else {
      advance(&op);
    }
    if (!op.advance && rng.uniform_int(0, 3) == 0) advance(&op);
    op.now = now;
    return op;
  }
};

Plan fleet_plan(std::uint64_t seed, std::size_t count,
                std::size_t connections) {
  Plan plan;
  Phase open;
  open.lanes.emplace_back();
  open.max_connections = 1;
  Phase prefill;
  Phase& m = plan.measured;
  const std::size_t per_session = std::max<std::size_t>(1, count / connections);
  for (std::size_t c = 0; c < connections; ++c) {
    FleetStream fs;
    fs.name = "fleet-" + std::to_string(c + 1);
    add_line(&open, kFleetOpenLine, kWrite);
    open.lanes[0].push_back(c);
    FleetGen gen(seed * 0x94d049bb133111ebull + c * 7919 + 11);
    prefill.lanes.emplace_back();
    for (std::size_t have = 0; have < kPrefillMembers; have += kPrefillBatch) {
      FleetOp op;
      gen.insert(&op, static_cast<int>(kPrefillBatch));
      op.now = gen.now;
      prefill.lanes.back().push_back(prefill.lines.size());
      add_line(&prefill, fleet_line(fs.name, op), kWrite);
      fs.prefill.push_back(std::move(op));
    }
    m.lanes.emplace_back();
    for (std::size_t i = 0; i < per_session; ++i) {
      FleetOp op;
      if (i % kQueryEvery == kQueryEvery - 1) {
        op.query = true;
        op.now = gen.now;
      } else {
        op = gen.update();
      }
      m.lanes.back().push_back(m.lines.size());
      add_line(&m, fleet_line(fs.name, op), op.query ? kRead : kWrite);
      fs.ops.push_back(std::move(op));
    }
    plan.fleets.push_back(std::move(fs));
  }
  // Sessions are opened one at a time on one connection, so the server's
  // open-order names match the names the lines were rendered with.
  plan.warmup.push_back(std::move(open));
  plan.warmup.push_back(std::move(prefill));
  return plan;
}


// Nominal measured-phase rates on the reference host (4 cores), used only
// to turn --seconds into a fixed request count.
double nominal_rate(Workload w) {
  switch (w) {
    case Workload::kColdSolve: return 24.0;
    case Workload::kHotRepeat: return 2000.0;
    case Workload::kFleetChurn: return 7000.0;
  }
  return 1.0;
}

}  // namespace

std::string fleet_line(const std::string& fleet, const FleetOp& op) {
  std::string line = std::string("{\"op\":\"") +
                     (op.query ? "fleet_query" : "fleet_update") +
                     "\",\"fleet\":\"" + fleet + "\"";
  if (!op.inserts.empty()) {
    line += ",\"insert\":[";
    for (std::size_t i = 0; i < op.inserts.size(); ++i) {
      if (i > 0) line += ',';
      line += "{\"id\":" + std::to_string(op.inserts[i].first) + ",\"point\":";
      append_point(&line, op.inserts[i].second);
      line += '}';
    }
    line += ']';
  }
  if (!op.erases.empty()) {
    line += ",\"erase\":[";
    for (std::size_t i = 0; i < op.erases.size(); ++i) {
      if (i > 0) line += ',';
      line += std::to_string(op.erases[i]);
    }
    line += ']';
  }
  if (op.advance) line += ",\"advance\":" + exact_num(op.now);
  return line + "}";
}

std::size_t cold_cycle_size() { return cold_cycle().size(); }

std::size_t measured_requests(Workload w, double seconds,
                              std::size_t connections) {
  const double want = std::max(1.0, nominal_rate(w) * seconds);
  std::size_t unit = 1;
  if (w == Workload::kColdSolve) unit = cold_cycle_size();
  if (w == Workload::kFleetChurn) unit = connections * kQueryEvery;
  const std::size_t units = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(want / unit)));
  return units * unit;
}

Plan make_plan(Workload w, std::uint64_t seed, double seconds,
               std::size_t connections) {
  const std::size_t count = measured_requests(w, seconds, connections);
  Plan plan;
  switch (w) {
    case Workload::kColdSolve: plan = cold_plan(seed, count); break;
    case Workload::kHotRepeat: plan = hot_plan(seed, count); break;
    case Workload::kFleetChurn:
      plan = fleet_plan(seed, count, connections);
      break;
  }
  plan.workload = w;
  plan.seed = seed;
  plan.connections = connections;
  return plan;
}

}  // namespace servebench
