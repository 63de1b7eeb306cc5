#include "dyncg/query_machine.hpp"

#include <algorithm>
#include <cstdio>

#include "dyncg/allpairs.hpp"
#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/proximity.hpp"
#include "machine/other_topologies.hpp"
#include "steady/machine_geometry.hpp"
#include "support/ackermann.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace dyncg {

namespace {

Status too_large(std::string_view family, std::size_t capacity,
                 std::size_t limit) {
  return Status::invalid_argument(
      "a machine of " + std::to_string(capacity) + " PEs is needed; " +
      std::string(family) + " simulates at most " + std::to_string(limit) +
      " PEs");
}

// Queries whose algorithm needs a pair of points refuse a single one up
// front, instead of reaching an envelope or steady-state size assertion.
Status too_few_points(std::string_view what, std::size_t n) {
  return Status::invalid_argument(std::string(what) +
                                  " needs at least two points, got " +
                                  std::to_string(n));
}

Status unknown_family(std::string_view family) {
  return Status::invalid_argument("unknown machine '" + std::string(family) +
                                  "'");
}

// printf-exact rendering of one answer fragment.
template <class... Args>
void appendf(std::string* out, const char* fmt, Args... args) {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n > 0) out->append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

}  // namespace

MotionSystem scenario_system(Query query, const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  if (query == Query::kSteady) {
    return diverging_motion_system(rng, spec.n, std::max(1, spec.k));
  }
  return random_motion_system(rng, spec.n, spec.d, spec.k);
}

StatusOr<MachinePlan> plan_machine(std::string_view family,
                                   std::size_t capacity) {
  MachinePlan plan{std::string(family), capacity, 0};
  if (family == "mesh") {
    plan.pes = ceil_pow4(std::max<std::size_t>(capacity, 1));
  } else if (family == "hypercube") {
    const std::size_t limit = std::size_t{1} << kMaxHypercubeDims;
    if (capacity > limit) return too_large(family, capacity, limit);
    plan.pes = ceil_pow2(std::max<std::size_t>(capacity, 1));
  } else if (family == "ccc") {
    const std::size_t limit = std::size_t{kMaxCccDims} << kMaxCccDims;
    if (capacity > limit) return too_large(family, capacity, limit);
    std::size_t d = 2;
    while ((d << d) < capacity) d *= 2;
    plan.pes = d << d;
  } else if (family == "shuffle") {
    const std::size_t limit = std::size_t{1} << kMaxShuffleDims;
    if (capacity > limit) return too_large(family, capacity, limit);
    plan.pes = ceil_pow2(std::max<std::size_t>(capacity, 2));
  } else {
    return unknown_family(family);
  }
  return plan;
}

StatusOr<MachinePlan> plan_query_machine(Query query,
                                         const MotionSystem& system,
                                         std::string_view family) {
  if (family != "mesh" && family != "hypercube" && family != "ccc" &&
      family != "shuffle") {
    return unknown_family(family);
  }
  const std::size_t n = system.size();
  const int k = system.motion_degree();
  // Davenport-Schinzel orders: squared distances have degree 2k, hull
  // directions 4k, coordinates k.
  const int s_dist = std::max(1, 2 * k);
  const int s_hull = 4 * std::max(1, k);
  const int s_coord = std::max(1, k);
  const std::string_view mesh_or_cube = family == "mesh" ? "mesh" : "hypercube";
  switch (query) {
    case Query::kNeighbor:
      return plan_machine(family, lambda_upper_bound(ceil_pow2(n), s_dist));
    case Query::kPairs:
      if (n < 2) return too_few_points("the pair sequence", n);
      return plan_machine(
          mesh_or_cube, lambda_upper_bound(ceil_pow2(n * (n - 1) / 2), s_dist));
    case Query::kHullwhen:
      return plan_machine(mesh_or_cube,
                          lambda_upper_bound(ceil_pow2(n), s_hull));
    case Query::kContain:
      if (n < 2) return too_few_points("the containment query", n);
      return plan_machine(mesh_or_cube,
                          lambda_upper_bound(ceil_pow2(n), s_coord));
    case Query::kSteady:
      if (n < 2) return too_few_points("the steady-state survey", n);
      return plan_machine(family, n);
    case Query::kCollisions:
      return plan_machine(family, n);
  }
  return Status::invalid_argument("unknown query");
}

Machine build_machine(const MachinePlan& plan) {
  TRACE_SPAN("machine.build");
  if (plan.family == "hypercube") {
    return Machine(make_hypercube_for(plan.capacity));
  }
  if (plan.family == "ccc") return Machine(make_ccc_for(plan.capacity));
  if (plan.family == "shuffle") {
    return Machine(make_shuffle_exchange_for(plan.capacity));
  }
  DYNCG_ASSERT(plan.family == "mesh", "unplanned machine family");
  return Machine(make_mesh_for(plan.capacity));
}

std::vector<double> fit_box(std::span<const double> box,
                            std::size_t dimension) {
  DYNCG_ASSERT(!box.empty(), "a box needs at least one dimension");
  std::vector<double> dims(box.begin(), box.end());
  dims.resize(dimension, box.back());
  return dims;
}

StatusOr<std::string> answer_query(Machine& m, Query query,
                                   const MotionSystem& system,
                                   const QueryArgs& args) {
  if (takes_query_point(query) && args.query >= system.size()) {
    return Status::invalid_argument(
        "query index " + std::to_string(args.query) + " out of range [0, " +
        std::to_string(system.size()) + ")");
  }
  std::string out;
  switch (query) {
    case Query::kNeighbor: {
      StatusOr<NeighborSequence> seq =
          try_neighbor_sequence(m, system, args.query, args.farthest);
      if (!seq.is_ok()) return seq.status();
      out = seq.value().to_string() + "\n";
      break;
    }
    case Query::kPairs:
      out = closest_pair_sequence(m, system, args.farthest).to_string() + "\n";
      break;
    case Query::kCollisions: {
      StatusOr<CollisionReport> rep =
          try_collision_times(m, system, args.query);
      if (!rep.is_ok()) return rep.status();
      if (rep.value().events.empty()) {
        appendf(&out, "no collisions for P%zu\n", args.query);
      }
      for (const CollisionEvent& e : rep.value().events) {
        appendf(&out, "t = %10.4f  P%zu <-> P%zu\n", e.time, args.query,
                e.other);
      }
      break;
    }
    case Query::kHullwhen: {
      StatusOr<IntervalSet> hit =
          try_hull_membership_intervals(m, system, args.query);
      if (!hit.is_ok()) return hit.status();
      appendf(&out, "P%zu is a hull vertex during ", args.query);
      out += hit.value().to_string() + "\n";
      break;
    }
    case Query::kContain: {
      if (args.box.empty()) {
        SmallestCube cube = smallest_enclosing_cube(m, system);
        appendf(&out, "smallest enclosing cube: edge %.4f at t = %.4f\n",
                cube.edge, cube.time);
        break;
      }
      StatusOr<IntervalSet> fits = try_containment_intervals(
          m, system, fit_box(args.box, system.dimension()));
      if (!fits.is_ok()) return fits.status();
      out = "fits the box during " + fits.value().to_string() + "\n";
      break;
    }
    case Query::kSteady: {
      appendf(&out, "steady NN of P%zu: P%zu\n", args.query,
              machine_steady_neighbor(m, system, args.query, args.farthest));
      SteadyHullSurvey survey = machine_steady_hull_survey(m, system);
      out += "steady hull: ";
      for (std::size_t id : survey.hull_ids) appendf(&out, "P%zu ", id);
      out += "\n";
      appendf(&out, "steady farthest pair: (P%zu, P%zu)\n", survey.farthest.a,
              survey.farthest.b);
      break;
    }
  }
  return out;
}

}  // namespace dyncg
