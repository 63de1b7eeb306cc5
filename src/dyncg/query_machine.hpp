#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "dyncg/motion.hpp"
#include "machine/machine.hpp"
#include "support/status.hpp"

// The machine a motion query runs on.
//
// The machine is a pure function of (query, n, k, machine family).  This is
// its one definition: dyncg_cli, the serving engine and the per-query
// helpers (allpairs_machine_mesh, ...) all build through it, and
// serve::parse_request plans with it to refuse, at parse time,
// requests whose machine no topology could simulate (CCC above 2048 PEs,
// shuffle-exchange above 2^12, the hypercube above 2^24) instead of letting
// them reach a topology's size assertion.
//
// Sizes follow Section 3: the envelope queries (neighbor, pairs, hullwhen,
// contain) need lambda(n, s) PEs for their Davenport-Schinzel bound s;
// collisions and steady need one PE per point.  pairs, hullwhen and contain
// run on the mesh when the family is "mesh" and on the hypercube otherwise;
// the other queries run on the named family.  pairs, contain and steady
// need at least two points; a smaller system is INVALID_ARGUMENT.
namespace dyncg {

enum class Query { kNeighbor, kPairs, kCollisions, kHullwhen, kContain, kSteady };

struct MachinePlan {
  std::string family;     // "mesh", "hypercube", "ccc" or "shuffle"
  std::size_t capacity = 0;  // PEs requested from the family's factory
  std::size_t pes = 0;       // PEs the factory builds (rounded up)
};

// A `family` machine with at least `capacity` PEs.  INVALID_ARGUMENT for
// an unknown family or a capacity beyond the family's simulable limit, the
// limit named in the message.
StatusOr<MachinePlan> plan_machine(std::string_view family,
                                   std::size_t capacity);

// The machine `query` needs for `system` on the requested family.
StatusOr<MachinePlan> plan_query_machine(Query query,
                                         const MotionSystem& system,
                                         std::string_view family);

// Builds a planned machine (a "machine.build" span).  Mesh and hypercube
// are built in O(log n); CCC and shuffle-exchange share one instance per
// size per process (machine/other_topologies.hpp).
Machine build_machine(const MachinePlan& plan);

}  // namespace dyncg
