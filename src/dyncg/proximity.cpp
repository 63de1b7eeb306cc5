#include "dyncg/proximity.hpp"

#include <sstream>

#include "ops/basic.hpp"
#include "support/assert.hpp"
#include "support/trace.hpp"

namespace dyncg {

std::string NeighborSequence::to_string() const {
  std::ostringstream os;
  os << (farthest ? "farthest" : "nearest") << " of P" << query << ": ";
  for (const NeighborEpoch& e : epochs) {
    os << "P" << e.neighbor << " on " << e.iv.to_string() << "; ";
  }
  return os.str();
}

std::size_t NeighborSequence::neighbor_at(double t) const {
  for (const NeighborEpoch& e : epochs) {
    if (e.iv.contains(t)) return e.neighbor;
    if (e.iv.lo > t) break;
  }
  DYNCG_ASSERT(false, "time outside the neighbor sequence domain");
  return 0;
}

NeighborSequence neighbor_sequence(Machine& m, const MotionSystem& system,
                                   std::size_t query, bool farthest,
                                   EnvelopeRunStats* stats) {
  TRACE_SPAN_COST("dyncg.neighbor_sequence", m.ledger());
  const std::size_t n = system.size();
  DYNCG_ASSERT(n >= 2, "need at least two points");
  DYNCG_ASSERT(query < n, "query index out of range");

  // Step 1: broadcast a description of f_query to every PE.  The trajectory
  // is O(1) words (d coordinates of degree <= k), so this is one broadcast.
  ops::charge_broadcast(m);

  // Step 2: every PE_j holding f_j builds d^2_{query,j}(t) locally.
  m.charge_local(static_cast<std::uint64_t>(system.dimension()) *
                 static_cast<std::uint64_t>(system.motion_degree() + 1));
  std::vector<Polynomial> dist2;
  std::vector<std::size_t> owner;  // family member -> point index
  dist2.reserve(n - 1);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == query) continue;
    dist2.push_back(system.point(query).distance_squared(system.point(j)));
    owner.push_back(j);
  }
  PolyFamily fam(std::move(dist2));

  // Step 3: Theorem 3.2.  Squared distances have degree <= 2k, so the
  // envelope's DS order is 2k.
  int s_bound = std::max(1, 2 * system.motion_degree());
  PiecewiseFn env =
      parallel_envelope(m, fam, s_bound, /*take_min=*/!farthest, stats);

  NeighborSequence seq;
  seq.query = query;
  seq.farthest = farthest;
  for (const Piece& p : env.pieces) {
    seq.epochs.push_back(
        NeighborEpoch{p.iv, owner[static_cast<std::size_t>(p.id)]});
  }
  return seq;
}

StatusOr<NeighborSequence> try_neighbor_sequence(Machine& m,
                                                 const MotionSystem& system,
                                                 std::size_t query,
                                                 bool farthest,
                                                 EnvelopeRunStats* stats) {
  const std::size_t n = system.size();
  if (n < 2) {
    return Status::invalid_argument(
        "neighbor sequence needs at least two points, got " +
        std::to_string(n));
  }
  if (query >= n) {
    return Status::invalid_argument("query index " + std::to_string(query) +
                                    " out of range [0, " + std::to_string(n) +
                                    ")");
  }
  Status st = validate_envelope_input(m, n - 1);
  if (!st.is_ok()) return st;
  return neighbor_sequence(m, system, query, farthest, stats);
}

Machine proximity_machine_mesh(const MotionSystem& system) {
  int s = std::max(1, 2 * system.motion_degree());
  return envelope_machine_mesh(system.size() - 1, s);
}

Machine proximity_machine_hypercube(const MotionSystem& system) {
  int s = std::max(1, 2 * system.motion_degree());
  return envelope_machine_hypercube(system.size() - 1, s);
}

std::size_t brute_force_neighbor(const MotionSystem& system,
                                 std::size_t query, double t, bool farthest) {
  std::size_t best = query == 0 ? 1 : 0;
  double bd = system.point(query).distance_squared(system.point(best))(t);
  for (std::size_t j = 0; j < system.size(); ++j) {
    if (j == query) continue;
    double d = system.point(query).distance_squared(system.point(j))(t);
    if (farthest ? d > bd : d < bd) {
      bd = d;
      best = j;
    }
  }
  return best;
}

}  // namespace dyncg
