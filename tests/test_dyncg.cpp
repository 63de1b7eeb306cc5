#include <gtest/gtest.h>

#include <cmath>

#include "dyncg/collision.hpp"
#include "dyncg/containment.hpp"
#include "dyncg/hull_membership.hpp"
#include "dyncg/motion.hpp"
#include "dyncg/motion_io.hpp"
#include "dyncg/proximity.hpp"
#include "dyncg/query_machine.hpp"
#include "envelope/scenario_key.hpp"
#include "machine/faults.hpp"
#include "steady/machine_geometry.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

// Sampling grid for oracle comparisons: geometric spacing plus jitter keeps
// samples away from the (measure-zero) breakpoints.
std::vector<double> sample_times() {
  std::vector<double> ts;
  double t = 0.0171;
  while (t < 60.0) {
    ts.push_back(t);
    t = t * 1.31 + 0.013;
  }
  return ts;
}

TEST(Motion, TrajectoryBasics) {
  Trajectory p({Polynomial({1.0, 2.0}), Polynomial({0.0, 0.0, 1.0})});
  EXPECT_EQ(p.dimension(), 2u);
  EXPECT_EQ(p.motion_degree(), 2);
  auto pos = p.position(2.0);
  EXPECT_DOUBLE_EQ(pos[0], 5.0);
  EXPECT_DOUBLE_EQ(pos[1], 4.0);
  Trajectory q = Trajectory::fixed({0.0, 0.0});
  Polynomial d2 = p.distance_squared(q);
  EXPECT_EQ(d2.degree(), 4);
  EXPECT_DOUBLE_EQ(d2(2.0), 25.0 + 16.0);
}


// random_motion_system's bucketed clash check must reproduce the quadratic
// scan it replaced draw for draw.  Fingerprints of the generated system,
// folded with the generator's next draw (so the number of draws consumed,
// i.e. the rejected clashes, is pinned too), recorded with the quadratic
// scan.  The d = 1 cases and the small-`coeff` cases reject many clashes.
TEST(Motion, RandomSystemFingerprintsArePinned) {
  struct Case {
    std::uint64_t seed;
    std::size_t n, dim;
    int k;
    double coeff;
    std::uint64_t fingerprint;
  };
  const Case cases[] = {
      {1, 300, 1, 2, 1, 0xbc9144533d42bca2ull},
      {1, 300, 2, 3, 1, 0xaa00bc1b3b8391c1ull},
      {1, 300, 3, 0, 1, 0x0a068b30b3b8f7afull},
      {1, 300, 4, 1, 1, 0xc6a6dc4022c43dafull},
      {1, 300, 5, 2, 1, 0x5af4ee15d9af2803ull},
      {7, 300, 1, 0, 1, 0x3c66838cfcf0dfd3ull},
      {7, 300, 2, 1, 1, 0x6e788f6f2a4f72fdull},
      {7, 300, 3, 2, 1, 0x91d129941c08262full},
      {7, 300, 4, 3, 1, 0xdf4c9242185e5ee5ull},
      {7, 300, 5, 0, 1, 0x9df2622da6d2b30aull},
      {42, 300, 1, 3, 1, 0xf5cdfd435f86f193ull},
      {42, 300, 2, 0, 1, 0xa8bd4e4ae7a4d607ull},
      {42, 300, 3, 1, 1, 0xef065479d2f4c085ull},
      {42, 300, 4, 2, 1, 0xb40ed3c15688e4e8ull},
      {42, 300, 5, 3, 1, 0xa2b145ff123a402cull},
      {3, 200, 2, 2, 0.01, 0xf564915c7743d8c6ull},   // 8 clashes
      {5, 30, 1, 1, 0.05, 0x653638b8adc222c2ull},    // 4 clashes
      {9, 60, 3, 0, 0.001, 0x83b07d665bb5f482ull},   // 11 clashes
      {11, 4096, 2, 2, 1, 0x5b34e04d21e1d1c6ull},
      {13, 2000, 1, 1, 1, 0x27506cd13a4a9625ull},    // 711 clashes
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    MotionSystem sys = random_motion_system(rng, c.n, c.dim, c.k, c.coeff);
    EXPECT_EQ(fingerprint_mix(fingerprint(sys), rng.next_u64()),
              c.fingerprint)
        << "seed " << c.seed << " n " << c.n << " d " << c.dim;
  }
}

TEST(MotionIo, RoundTripPreservesTrajectories) {
  Rng rng(83);
  MotionSystem sys = random_motion_system(rng, 7, 3, 2);
  MotionSystem back = motion_from_text(to_text(sys));
  ASSERT_EQ(back.size(), sys.size());
  ASSERT_EQ(back.dimension(), sys.dimension());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    for (std::size_t c = 0; c < sys.dimension(); ++c) {
      for (double t : {0.0, 1.5, 7.25}) {
        EXPECT_DOUBLE_EQ(back.point(i).coordinate(c)(t),
                         sys.point(i).coordinate(c)(t));
      }
    }
  }
}

TEST(MotionIo, ParsesHandWrittenFile) {
  std::string text =
      "# two linear planar points\n"
      "dyncg-motion 1\n"
      "dim 2\n"
      "point 0 1 ; 0 0.5\n"
      "point 10 -1 ; 2\n";
  MotionSystem sys = motion_from_text(text);
  EXPECT_EQ(sys.size(), 2u);
  EXPECT_EQ(sys.dimension(), 2u);
  auto pos = sys.point(0).position(2.0);
  EXPECT_DOUBLE_EQ(pos[0], 2.0);
  EXPECT_DOUBLE_EQ(pos[1], 1.0);
  EXPECT_DOUBLE_EQ(sys.point(1).position(3.0)[0], 7.0);
}

TEST(MotionIo, RejectsGarbage) {
  EXPECT_DEATH(motion_from_text("hello world\n"), "motion file");
  EXPECT_DEATH(motion_from_text("dyncg-motion 1\npoint 1 2\n"),
               "point before dim");
  EXPECT_DEATH(motion_from_text("dyncg-motion 1\ndim 2\npoint 1 2\n"),
               "coordinate count");
}


TEST(Motion, VelocityAndSpeed) {
  Trajectory p({Polynomial({1.0, 2.0, 3.0}), Polynomial({0.0, -1.0})});
  Trajectory v = p.velocity();
  EXPECT_DOUBLE_EQ(v.position(2.0)[0], 2 + 12.0);  // d/dt (1+2t+3t^2)
  EXPECT_DOUBLE_EQ(v.position(2.0)[1], -1.0);
  Polynomial s2 = p.speed_squared();
  double t = 1.5;
  double vx = 2 + 6 * t, vy = -1;
  EXPECT_DOUBLE_EQ(s2(t), vx * vx + vy * vy);
  // Static points have zero speed.
  EXPECT_TRUE(Trajectory::fixed({3.0, 4.0}).speed_squared().is_zero());
}

TEST(Motion, Generators) {
  Rng rng(3);
  MotionSystem sys = random_motion_system(rng, 12, 3, 2);
  EXPECT_EQ(sys.size(), 12u);
  EXPECT_EQ(sys.dimension(), 3u);
  EXPECT_LE(sys.motion_degree(), 2);
  EXPECT_TRUE(sys.initial_positions_distinct());
  MotionSystem div = diverging_motion_system(rng, 8, 1);
  EXPECT_EQ(div.dimension(), 2u);
  EXPECT_EQ(div.motion_degree(), 1);
}

// --- Theorem 4.1 ------------------------------------------------------------

class NeighborSequenceProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(NeighborSequenceProperty, MatchesBruteForce) {
  auto [which, n, k, farthest] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 31 + k * 7 + farthest + which));
  MotionSystem sys = random_motion_system(rng, static_cast<std::size_t>(n), 2, k);
  Machine m = which == 0 ? proximity_machine_mesh(sys)
                         : proximity_machine_hypercube(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 0, farthest);
  ASSERT_FALSE(seq.epochs.empty());
  EXPECT_DOUBLE_EQ(seq.epochs.front().iv.lo, 0.0);
  EXPECT_TRUE(std::isinf(seq.epochs.back().iv.hi));
  for (double t : sample_times()) {
    std::size_t got = seq.neighbor_at(t);
    std::size_t want = brute_force_neighbor(sys, 0, t, farthest);
    double dg = sys.point(0).distance_squared(sys.point(got))(t);
    double dw = sys.point(0).distance_squared(sys.point(want))(t);
    EXPECT_NEAR(dg, dw, 1e-6 * (1 + dw)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeighborSequenceProperty,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(3, 6, 12),
                       ::testing::Values(1, 2), ::testing::Bool()));

TEST(NeighborSequence, EpochsAreChronologicalAndAbut) {
  Rng rng(5);
  MotionSystem sys = random_motion_system(rng, 9, 2, 1);
  Machine m = proximity_machine_mesh(sys);
  NeighborSequence seq = neighbor_sequence(m, sys, 2);
  EXPECT_EQ(seq.query, 2u);
  for (std::size_t i = 0; i + 1 < seq.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(seq.epochs[i].iv.hi, seq.epochs[i + 1].iv.lo);
    EXPECT_NE(seq.epochs[i].neighbor, seq.epochs[i + 1].neighbor);
  }
}

// --- Theorem 4.2 ------------------------------------------------------------

TEST(Collision, PlantedCollisionsFound) {
  // P0 sits at the origin; P1 passes through it at t = 2, P2 at t = 5,
  // P3 never collides.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory({Polynomial({-2.0, 1.0}), Polynomial({-4.0, 2.0})}));
  pts.push_back(Trajectory({Polynomial({5.0, -1.0}), Polynomial({10.0, -2.0})}));
  pts.push_back(Trajectory({Polynomial({1.0, 1.0}), Polynomial({1.0})}));
  MotionSystem sys(2, std::move(pts));
  Machine m = collision_machine_mesh(sys);
  CollisionReport rep = collision_times(m, sys, 0);
  ASSERT_EQ(rep.events.size(), 2u);
  EXPECT_NEAR(rep.events[0].time, 2.0, 1e-9);
  EXPECT_EQ(rep.events[0].other, 1u);
  EXPECT_NEAR(rep.events[1].time, 5.0, 1e-9);
  EXPECT_EQ(rep.events[1].other, 2u);
}

TEST(Collision, MultipleCollisionsOnePair) {
  // P1 oscillates through P0 twice: x(t) = (t-1)(t-3), y = 0 versus the
  // origin.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory({Polynomial::from_roots({1.0, 3.0}),
                            Polynomial()}));
  MotionSystem sys(2, std::move(pts));
  Machine m = collision_machine_hypercube(sys);
  CollisionReport rep = collision_times(m, sys, 0);
  ASSERT_EQ(rep.events.size(), 2u);
  EXPECT_NEAR(rep.events[0].time, 1.0, 1e-9);
  EXPECT_NEAR(rep.events[1].time, 3.0, 1e-9);
}

TEST(Collision, EventsVerifiedAndSorted) {
  Rng rng(11);
  MotionSystem sys = random_motion_system(rng, 16, 2, 2);
  Machine m = collision_machine_mesh(sys);
  CollisionReport rep = collision_times(m, sys, 3);
  double last = -1.0;
  for (const CollisionEvent& e : rep.events) {
    EXPECT_GE(e.time, last);
    last = e.time;
    double d2 = sys.point(3).distance_squared(sys.point(e.other))(e.time);
    EXPECT_NEAR(d2, 0.0, 1e-6);
  }
}

TEST(Collision, RandomizedModelAgrees) {
  Rng rng(13);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  Machine m1 = collision_machine_hypercube(sys);
  Machine m2 = collision_machine_hypercube(sys);
  CollisionReport a = collision_times(m1, sys, 0, false);
  CollisionReport b = collision_times(m2, sys, 0, true);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_NEAR(a.events[i].time, b.events[i].time, 1e-12);
  }
}

TEST(Collision, PairPrimitiveRobustToTangentialApproach) {
  // Same x motion, y differs by (t-2)^2: distance reaches exactly zero at
  // t = 2 where the coordinate difference has a double root... the pivot
  // coordinate difference is y with double root at 2.
  Trajectory a({Polynomial({0.0, 1.0}), Polynomial({4.0, -4.0, 1.0})});
  Trajectory b({Polynomial({0.0, 1.0}), Polynomial()});
  auto times = pair_collision_times(a, b);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_NEAR(times[0], 2.0, 1e-5);
}

// --- Theorems 4.6-4.8 -------------------------------------------------------

class SpreadProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpreadProperty, CoordinateSpreadsMatchBruteForce) {
  auto [n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 17 + k));
  MotionSystem sys = random_motion_system(rng, static_cast<std::size_t>(n), 2, k);
  Machine m = containment_machine_mesh(sys);
  auto spreads = coordinate_spreads(m, sys);
  ASSERT_EQ(spreads.size(), 2u);
  for (double t : sample_times()) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(spreads[c](t), brute_force_spread(sys, c, t), 1e-6)
          << "t=" << t << " coord=" << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpreadProperty,
                         ::testing::Combine(::testing::Values(3, 7, 15),
                                            ::testing::Values(1, 2)));

TEST(Containment, IntervalsMatchSampledOracle) {
  Rng rng(23);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  Machine m = containment_machine_mesh(sys);
  std::vector<double> dims{10.0, 12.0};
  IntervalSet J = containment_intervals(m, sys, dims);
  for (double t : sample_times()) {
    bool fits = brute_force_spread(sys, 0, t) <= dims[0] &&
                brute_force_spread(sys, 1, t) <= dims[1];
    // Skip samples within tolerance of a boundary.
    double margin = std::min(std::fabs(brute_force_spread(sys, 0, t) - dims[0]),
                             std::fabs(brute_force_spread(sys, 1, t) - dims[1]));
    if (margin < 1e-3) continue;
    EXPECT_EQ(J.contains(t), fits) << "t=" << t;
  }
}

TEST(Containment, NeverAndAlwaysFits) {
  Rng rng(29);
  MotionSystem sys = random_motion_system(rng, 6, 2, 1);
  Machine m1 = containment_machine_hypercube(sys);
  EXPECT_TRUE(containment_intervals(m1, sys, {1e-9, 1e-9}).empty());
  // Linear motion diverges, so a huge box fits only up to some horizon —
  // but a box larger than any reachable spread within the root bound always
  // contains t = 0.
  Machine m2 = containment_machine_hypercube(sys);
  IntervalSet J = containment_intervals(m2, sys, {1e12, 1e12});
  EXPECT_TRUE(J.contains(0.0));
}

TEST(Containment, EdgeFunctionIsMaxOfSpreads) {
  Rng rng(31);
  MotionSystem sys = random_motion_system(rng, 9, 2, 2);
  Machine m = containment_machine_mesh(sys);
  PiecewisePoly edge = enclosing_cube_edge(m, sys);
  for (double t : sample_times()) {
    double want = std::max(brute_force_spread(sys, 0, t),
                           brute_force_spread(sys, 1, t));
    EXPECT_NEAR(edge(t), want, 1e-6) << "t=" << t;
  }
}

TEST(Containment, SmallestCubeMatchesDenseScan) {
  Rng rng(37);
  MotionSystem sys = random_motion_system(rng, 7, 2, 1);
  Machine m = containment_machine_mesh(sys);
  SmallestCube cube = smallest_enclosing_cube(m, sys);
  // Dense scan oracle.
  double best = kInfinity;
  for (double t = 0.0; t < 50.0; t += 0.003) {
    best = std::min(best, std::max(brute_force_spread(sys, 0, t),
                                   brute_force_spread(sys, 1, t)));
  }
  EXPECT_LE(cube.edge, best + 1e-6);
  EXPECT_NEAR(cube.edge, std::max(brute_force_spread(sys, 0, cube.time),
                                  brute_force_spread(sys, 1, cube.time)),
              1e-6);
}

TEST(Containment, ThreeDimensionalSystem) {
  Rng rng(41);
  MotionSystem sys = random_motion_system(rng, 6, 3, 1);
  Machine m = containment_machine_hypercube(sys);
  auto spreads = coordinate_spreads(m, sys);
  ASSERT_EQ(spreads.size(), 3u);
  SmallestCube cube = smallest_enclosing_cube(m, sys);
  EXPECT_GT(cube.edge, 0.0);
}

// --- Theorem 4.5 ------------------------------------------------------------

class HullMembershipProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HullMembershipProperty, MatchesStaticOracleAtSamples) {
  auto [which, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 13 + k * 3 + which));
  MotionSystem sys = random_motion_system(rng, static_cast<std::size_t>(n), 2, k);
  Machine m = which == 0 ? hull_membership_machine_mesh(sys)
                         : hull_membership_machine_hypercube(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  for (double t : sample_times()) {
    bool want = brute_force_is_extreme(sys, 0, t);
    // Skip samples too close to a membership boundary.
    bool near_boundary = false;
    for (const Interval& iv : hit.intervals()) {
      if (std::fabs(t - iv.lo) < 2e-3 ||
          (!std::isinf(iv.hi) && std::fabs(t - iv.hi) < 2e-3)) {
        near_boundary = true;
      }
    }
    if (near_boundary) continue;
    EXPECT_EQ(hit.contains(t), want) << "t=" << t << " n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HullMembershipProperty,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(3, 5, 9, 14),
                                            ::testing::Values(1, 2)));


TEST(HullMembership, BreakdownUnionEqualsTotal) {
  Rng rng(71);
  MotionSystem sys = random_motion_system(rng, 8, 2, 1);
  Machine m = hull_membership_machine_mesh(sys);
  HullMembershipBreakdown br = hull_membership_breakdown(m, sys, 0);
  IntervalSet re = br.A0.unite(br.B0).unite(br.C0).unite(br.D0);
  for (double t = 0.03; t < 40; t = t * 1.3 + 0.02) {
    EXPECT_EQ(br.total.contains(t), re.contains(t)) << t;
  }
  // C0 means "all other points strictly below": then the query is topmost,
  // so it must be extreme.
  for (const Interval& iv : br.C0.intervals()) {
    EXPECT_TRUE(br.total.contains(iv.midpoint()));
  }
}

TEST(HullMembership, TrivialSystems) {
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory::fixed({0.0, 0.0}));
  pts.push_back(Trajectory::fixed({1.0, 0.0}));
  MotionSystem sys(2, std::move(pts));
  Machine m = hull_membership_machine_mesh(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  EXPECT_TRUE(hit.contains(0.0));
  EXPECT_TRUE(hit.contains(1e6));
}

TEST(HullMembership, PointOvertakenByHull) {
  // Static square; query starts outside (clearly extreme) and drives deep
  // inside it.
  std::vector<Trajectory> pts;
  pts.push_back(Trajectory({Polynomial({-10.0, 2.0}), Polynomial({0.1})}));
  pts.push_back(Trajectory::fixed({-1.0, -1.0}));
  pts.push_back(Trajectory::fixed({1.0, -1.0}));
  pts.push_back(Trajectory::fixed({1.0, 1.0}));
  pts.push_back(Trajectory::fixed({-1.0, 1.0}));
  MotionSystem sys(2, std::move(pts));
  Machine m = hull_membership_machine_mesh(sys);
  IntervalSet hit = hull_membership_intervals(m, sys, 0);
  // Outside for t < 4.5 (x < -1), inside for 4.5 < t < 5.55 (|x| < 1),
  // outside again after.
  EXPECT_TRUE(hit.contains(1.0));
  EXPECT_FALSE(hit.contains(5.0));
  EXPECT_TRUE(hit.contains(6.0));
}

TEST(QueryMachine, AnswerQueryAppliesTheBoxRule) {
  MotionSystem sys = scenario_system(Query::kContain, ScenarioSpec{3, 6, 2, 1});
  auto answer = [&](std::vector<double> box) {
    Machine m = build_machine(
        plan_query_machine(Query::kContain, sys, "mesh").value());
    return answer_query(m, Query::kContain, sys, QueryArgs{0, false, box})
        .value();
  };
  const std::string square = answer({8.0});
  EXPECT_EQ(square, answer({8.0, 8.0}));
  EXPECT_EQ(square, answer({8.0, 8.0, 5.0}));
  EXPECT_EQ(square.rfind("fits the box during ", 0), 0u) << square;
  EXPECT_EQ(answer({}).rfind("smallest enclosing cube: edge ", 0), 0u);
}

TEST(QueryMachine, SteadyScenarioIgnoresDimension) {
  const ScenarioSpec plane{4, 7, 2, 2};
  ScenarioSpec space = plane;
  space.d = 3;
  EXPECT_EQ(fingerprint(scenario_system(Query::kSteady, plane)),
            fingerprint(scenario_system(Query::kSteady, space)));
  EXPECT_EQ(scenario_system(Query::kNeighbor, space).dimension(), 3u);
}

TEST(QueryMachine, RefusesAQueryPointOutsideTheSystem) {
  const ScenarioSpec spec{1, 6, 2, 1};
  for (Query q : {Query::kNeighbor, Query::kCollisions, Query::kHullwhen,
                  Query::kSteady}) {
    MotionSystem sys = scenario_system(q, spec);
    Machine m = build_machine(plan_query_machine(q, sys, "mesh").value());
    StatusOr<std::string> got = answer_query(m, q, sys, QueryArgs{9, false, {}});
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), "query index 9 out of range [0, 6)");
    EXPECT_TRUE(answer_query(m, q, sys, QueryArgs{5, false, {}}).is_ok());
  }
  // pairs and contain ask about no single point, so the index is unused.
  for (Query q : {Query::kPairs, Query::kContain}) {
    MotionSystem sys = scenario_system(q, spec);
    Machine m = build_machine(plan_query_machine(q, sys, "mesh").value());
    EXPECT_TRUE(answer_query(m, q, sys, QueryArgs{9, false, {}}).is_ok());
  }
}

// The steady survey builds the germ hull once and bills the farthest-pair
// phase's hull without rebuilding it; its text and ledger must be those of
// the three separate library calls, which build the hull twice.
struct SurveyCase {
  const char* family;
  std::size_t n;
  bool faulted;
};

class SteadySurvey : public ::testing::TestWithParam<SurveyCase> {};

TEST_P(SteadySurvey, OneHullAnswersAndBillsLikeThreeCalls) {
  const SurveyCase& c = GetParam();
  const FaultPlan plan =
      FaultPlan::parse("link:4-5@0..300,drop:6-7@3,pe:9@50..400").value();
  for (int k : {1, 2}) {
    MotionSystem sys =
        scenario_system(Query::kSteady, ScenarioSpec{3, c.n, 2, k});
    MachinePlan mp = plan_query_machine(Query::kSteady, sys, c.family).value();
    const std::size_t query = c.n / 2;
    Machine survey = build_machine(mp);
    Machine separate = build_machine(mp);
    survey.set_fault_plan(c.faulted ? &plan : nullptr);
    separate.set_fault_plan(c.faulted ? &plan : nullptr);

    std::string got =
        answer_query(survey, Query::kSteady, sys, QueryArgs{query, false, {}}).value();

    std::string want =
        "steady NN of P" + std::to_string(query) + ": P" +
        std::to_string(machine_steady_neighbor(separate, sys, query)) +
        "\nsteady hull: ";
    for (std::size_t id : machine_steady_hull_ids(separate, sys)) {
      want += "P" + std::to_string(id) + " ";
    }
    auto far = machine_steady_farthest_pair(separate, sys);
    want += "\nsteady farthest pair: (P" + std::to_string(far.a) + ", P" +
            std::to_string(far.b) + ")\n";

    EXPECT_EQ(got, want) << "k " << k;
    EXPECT_EQ(survey.ledger().snapshot(), separate.ledger().snapshot())
        << "k " << k;
    EXPECT_EQ(survey.fault_report(), separate.fault_report()) << "k " << k;
  }
}

std::vector<SurveyCase> survey_cases() {
  std::vector<SurveyCase> cases;
  for (const char* family : {"mesh", "hypercube", "ccc", "shuffle"}) {
    for (std::size_t n : {2u, 3u, 5u, 64u, 300u}) {
      cases.push_back(SurveyCase{family, n, false});
    }
  }
  cases.push_back(SurveyCase{"mesh", 64, true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSizes, SteadySurvey, ::testing::ValuesIn(survey_cases()),
    [](const ::testing::TestParamInfo<SurveyCase>& info) {
      return std::string(info.param.family) + "N" +
             std::to_string(info.param.n) +
             (info.param.faulted ? "Faulted" : "");
    });

}  // namespace
}  // namespace dyncg
