#include "dyncg/containment.hpp"

#include <algorithm>

#include "dyncg/query_machine.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace dyncg {
namespace {

// Charge one Lemma 3.1 combine pass over the whole machine (used for the
// D_i = M_i - m_i differences, the W_i indicators, and the W/D folds, all of
// which the paper prices as Lemma 3.1 applications).
void charge_lemma31_pass(Machine& m, int s_bound) {
  envelope_detail::charge_combine_level(m, m.size(), s_bound);
}

}  // namespace

std::vector<PiecewisePoly> coordinate_spreads(Machine& m,
                                              const MotionSystem& system) {
  const std::size_t d = system.dimension();
  const int k = std::max(1, system.motion_degree());
  std::vector<PiecewisePoly> spreads;
  spreads.reserve(d);
  for (std::size_t i = 0; i < d; ++i) {
    // Step 1 (Theorem 4.6): min and max envelopes of the i-th coordinate
    // family F_i = { p_i(f_j(t)) }.
    std::vector<Polynomial> coords;
    coords.reserve(system.size());
    for (std::size_t j = 0; j < system.size(); ++j) {
      coords.push_back(system.point(j).coordinate(i));
    }
    PolyFamily fam(std::move(coords));
    PiecewiseFn lo = parallel_envelope(m, fam, k, /*take_min=*/true);
    PiecewiseFn hi = parallel_envelope(m, fam, k, /*take_min=*/false);
    // Step 2: D_i = M_i - m_i via one Lemma 3.1 pass; Lemma 2.5 bounds the
    // refinement at (pieces of M_i) + (pieces of m_i).
    charge_lemma31_pass(m, k);
    PiecewisePoly spread = materialize(fam, hi) - materialize(fam, lo);
    DYNCG_ASSERT(spread.piece_count() <=
                     2 * lambda_upper_bound(ceil_pow2(system.size()), k),
                 "spread piece count exceeds the Lemma 2.5 bound");
    spreads.push_back(std::move(spread));
  }
  return spreads;
}

IntervalSet containment_intervals(Machine& m, const MotionSystem& system,
                                  const std::vector<double>& dims) {
  TRACE_SPAN_COST("dyncg.containment_intervals", m.ledger());
  DYNCG_ASSERT(dims.size() == system.dimension(),
               "one rectangle dimension per coordinate");
  const int k = std::max(1, system.motion_degree());
  std::vector<PiecewisePoly> spreads = coordinate_spreads(m, system);
  // Step 3: indicators W_i = [D_i <= X_i]; each is a sublevel-set
  // computation priced as a Lemma 3.1 pass (root finding per piece).
  // Step 4: C = min W_i over the Theta(1) coordinates.
  IntervalSet J = IntervalSet{}.complement();  // [0, inf)
  for (std::size_t i = 0; i < spreads.size(); ++i) {
    charge_lemma31_pass(m, k);
    J = J.intersect(spreads[i].sublevel_set(dims[i]));
  }
  // Step 5: pack the alternating intervals into a string (parallel prefix).
  for (int b = 0; b < floor_log2(m.size()); ++b) {
    m.charge_exchange(static_cast<unsigned>(b));
  }
  return J;
}

StatusOr<IntervalSet> try_containment_intervals(
    Machine& m, const MotionSystem& system,
    const std::vector<double>& dims) {
  if (dims.size() != system.dimension()) {
    return Status::invalid_argument(
        "one rectangle dimension per coordinate: got " +
        std::to_string(dims.size()) + " dimensions for a " +
        std::to_string(system.dimension()) + "-dimensional system");
  }
  Status st = validate_envelope_input(m, system.size());
  if (!st.is_ok()) return st;
  return containment_intervals(m, system, dims);
}

PiecewisePoly enclosing_cube_edge(Machine& m, const MotionSystem& system) {
  const int k = std::max(1, system.motion_degree());
  std::vector<PiecewisePoly> spreads = coordinate_spreads(m, system);
  // Theorem 4.7 Step 2: D = max_i D_i by Theta(log d) = Theta(1) stages of
  // Lemma 3.1.
  PiecewisePoly edge = spreads[0];
  for (std::size_t i = 1; i < spreads.size(); ++i) {
    charge_lemma31_pass(m, k);
    edge = edge.max_with(spreads[i]);
  }
  return edge;
}

SmallestCube smallest_enclosing_cube(Machine& m, const MotionSystem& system) {
  TRACE_SPAN_COST("dyncg.smallest_enclosing_cube", m.ledger());
  PiecewisePoly edge = enclosing_cube_edge(m, system);
  // Corollary 4.8: each PE minimizes over its Theta(1) pieces locally, then
  // one semigroup reduction finds the global minimum.
  m.charge_local(static_cast<std::uint64_t>(system.motion_degree()) + 2);
  for (int b = 0; b < floor_log2(m.size()); ++b) {
    m.charge_exchange(static_cast<unsigned>(b));
  }
  auto ext = edge.global_min();
  return SmallestCube{ext.value, ext.time};
}

Machine containment_machine_mesh(const MotionSystem& system) {
  return build_machine(
      plan_query_machine(Query::kContain, system, "mesh").value());
}

Machine containment_machine_hypercube(const MotionSystem& system) {
  return build_machine(
      plan_query_machine(Query::kContain, system, "hypercube").value());
}

double brute_force_spread(const MotionSystem& system, std::size_t coord,
                          double t) {
  double lo = system.point(0).coordinate(coord)(t);
  double hi = lo;
  for (std::size_t j = 1; j < system.size(); ++j) {
    double v = system.point(j).coordinate(coord)(t);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi - lo;
}

}  // namespace dyncg
