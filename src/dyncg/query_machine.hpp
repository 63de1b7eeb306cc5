#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dyncg/motion.hpp"
#include "machine/machine.hpp"
#include "support/status.hpp"

// A motion query: the scenario it runs on, the machine it runs on and the
// text of its answer.
//
// This is the one definition of the six Section 4/5 queries.  dyncg_cli and
// the serving engine (serve::run_query) both generate, plan, build and
// answer through it, so the CLI's stdout and a served `result` are the same
// bytes by construction; the per-query helpers (allpairs_machine_mesh, ...)
// build through it too.
//
// Scenario.  A generator scenario is (seed, n, d, k); its defaults are what
// a bare `dyncg_cli neighbor` and a request naming only an op query.  The
// steady-state survey builds its own diverging motion from (seed, n, k), so
// it takes no loaded or inline system and ignores d.
//
// Machine.  The machine is a pure function of (query, n, k, machine
// family).  serve::parse_request plans with it to refuse, at parse time,
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

// A generator scenario.
struct ScenarioSpec {
  std::uint64_t seed = 1;
  std::size_t n = 8;   // points
  std::size_t d = 2;   // dimension (not used by steady)
  int k = 2;           // motion degree
};

// Queries that build their own system from a ScenarioSpec and refuse a
// loaded or inline one: the steady-state survey.
constexpr bool generator_only(Query query) { return query == Query::kSteady; }

// Queries asked about one point of the system (QueryArgs::query): all but
// pairs and contain.
constexpr bool takes_query_point(Query query) {
  return query != Query::kPairs && query != Query::kContain;
}

// The system `query` runs on for `spec`: diverging motion of degree
// max(1, k) for steady, random_motion_system(n, d, k) for the others.
MotionSystem scenario_system(Query query, const ScenarioSpec& spec);

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

// What a query is asked beyond its system.  `query` is the query point
// (neighbor, collisions, hullwhen, steady); `box` the rectangle of
// `contain`, empty for the smallest enclosing cube.
struct QueryArgs {
  std::size_t query = 0;
  bool farthest = false;
  std::span<const double> box;
};

// The box rule: missing trailing dimensions repeat the last one, extra ones
// are dropped.  `box` must be non-empty.
std::vector<double> fit_box(std::span<const double> box,
                            std::size_t dimension);

// Answers `query` for `system` on `m` and returns its text, one or more
// '\n'-terminated lines (what dyncg_cli prints above its cost line).
// Errors are the algorithms' own validation statuses, and INVALID_ARGUMENT
// for a query point outside the system.
StatusOr<std::string> answer_query(Machine& m, Query query,
                                   const MotionSystem& system,
                                   const QueryArgs& args);

}  // namespace dyncg
