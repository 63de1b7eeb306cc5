#include "dyncg/query_machine.hpp"

#include <algorithm>

#include "machine/other_topologies.hpp"
#include "support/ackermann.hpp"
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

}  // namespace

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

}  // namespace dyncg
