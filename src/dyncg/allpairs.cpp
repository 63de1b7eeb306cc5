#include "dyncg/allpairs.hpp"

#include <sstream>

#include "dyncg/collision.hpp"
#include "dyncg/query_machine.hpp"
#include "ops/basic.hpp"
#include "ops/sorting.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace dyncg {
namespace {

// Enumerate unordered pairs and their squared-distance polynomials; the
// loading step of the Section 6 construction (each PE receives one pair,
// via one sort-based routing round charged by the caller).
struct PairFamily {
  PolyFamily family;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
};

PairFamily build_pair_family(const MotionSystem& system) {
  PairFamily out;
  const std::size_t n = system.size();
  out.pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) out.pairs.emplace_back(i, j);
  }
  // The squared-distance polynomials are independent per pair — the heavy
  // part of the O(n^2) loading step runs across host threads.
  std::vector<Polynomial> dist2(out.pairs.size());
  parallel_for(out.pairs.size(), [&](std::size_t p) {
    auto [i, j] = out.pairs[p];
    dist2[p] = system.point(i).distance_squared(system.point(j));
  });
  out.family = PolyFamily(std::move(dist2));
  return out;
}

}  // namespace

std::string PairSequence::to_string() const {
  std::ostringstream os;
  os << (farthest ? "farthest" : "closest") << " pairs: ";
  for (const PairEpoch& e : epochs) {
    os << "(P" << e.a << ",P" << e.b << ") on " << e.iv.to_string() << "; ";
  }
  return os.str();
}

std::pair<std::size_t, std::size_t> PairSequence::pair_at(double t) const {
  for (const PairEpoch& e : epochs) {
    if (e.iv.contains(t)) return {e.a, e.b};
    if (e.iv.lo > t) break;
  }
  DYNCG_ASSERT(false, "time outside the pair sequence domain");
  return {0, 0};
}

PairSequence closest_pair_sequence(Machine& m, const MotionSystem& system,
                                   bool farthest, EnvelopeRunStats* stats) {
  TRACE_SPAN_COST("dyncg.closest_pair_sequence", m.ledger());
  DYNCG_ASSERT(system.size() >= 2, "need at least two points");
  PairFamily pf = build_pair_family(system);
  // Load one pair per PE: a broadcast of the point descriptions plus one
  // concentration route, Theta(sort) — dominated by the envelope below.
  ops::charge_broadcast(m);
  for (int k = 0; k < floor_log2(m.size()); ++k) {
    m.charge_exchange(static_cast<unsigned>(k));
  }
  m.charge_local(static_cast<std::uint64_t>(system.dimension()));

  int s_bound = std::max(1, 2 * system.motion_degree());
  PiecewiseFn env = parallel_envelope(m, pf.family, s_bound,
                                      /*take_min=*/!farthest, stats);
  PairSequence seq;
  seq.farthest = farthest;
  for (const Piece& p : env.pieces) {
    auto [a, b] = pf.pairs[static_cast<std::size_t>(p.id)];
    seq.epochs.push_back(PairEpoch{p.iv, a, b});
  }
  return seq;
}

std::vector<AllCollisionEvent> all_collision_times(Machine& m,
                                                   const MotionSystem& system) {
  TRACE_SPAN_COST("dyncg.all_collision_times", m.ledger());
  PairFamily pf = build_pair_family(system);
  const int k = std::max(1, system.motion_degree());
  std::size_t slots = ceil_pow2(static_cast<std::size_t>(k));
  m.charge_local(static_cast<std::uint64_t>(k) *
                 static_cast<std::uint64_t>(system.dimension()));

  constexpr double kDead = 1e300;
  struct Slot {
    double time;
    std::size_t a;
    std::size_t b;
    bool operator<(const Slot& o) const { return time < o.time; }
  };
  DYNCG_ASSERT(pf.pairs.size() <= m.size(),
               "machine smaller than the pair count");
  std::vector<Slot> file(m.size() * slots, Slot{kDead, 0, 0});
  // Root isolation per pair is independent; pair p writes only its own slot
  // range [p * slots, (p + 1) * slots).
  parallel_for(pf.pairs.size(), [&](std::size_t p) {
    auto [i, j] = pf.pairs[p];
    std::vector<double> roots =
        pair_collision_times(system.point(i), system.point(j));
    DYNCG_ASSERT(roots.size() <= slots, "more collisions than k allows");
    for (std::size_t r = 0; r < roots.size(); ++r) {
      file[p * slots + r] = Slot{roots[r], i, j};
    }
  });
  ops::bitonic_sort_slotted(m, file, slots);
  std::vector<AllCollisionEvent> out;
  for (const Slot& s : file) {
    if (s.time >= kDead) break;
    out.push_back(AllCollisionEvent{s.time, s.a, s.b});
  }
  return out;
}

Machine allpairs_machine_mesh(const MotionSystem& system) {
  return build_machine(
      plan_query_machine(Query::kPairs, system, "mesh").value());
}

Machine allpairs_machine_hypercube(const MotionSystem& system) {
  return build_machine(
      plan_query_machine(Query::kPairs, system, "hypercube").value());
}

std::pair<std::size_t, std::size_t> brute_force_pair(
    const MotionSystem& system, double t, bool farthest) {
  std::pair<std::size_t, std::size_t> best{0, 1};
  double bd = system.point(0).distance_squared(system.point(1))(t);
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      double d = system.point(i).distance_squared(system.point(j))(t);
      if (farthest ? d > bd : d < bd) {
        bd = d;
        best = {i, j};
      }
    }
  }
  return best;
}

}  // namespace dyncg
