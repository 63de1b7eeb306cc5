#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "dyncg/hull_membership.hpp"
#include "envelope/parallel_envelope.hpp"
#include "pieces/envelope_serial.hpp"
#include "pieces/jump_family.hpp"
#include "support/ds_sequence.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dyncg {
namespace {

// Every one-shot build walks the same merge tree, so envelopes must agree
// bit for bit: same ids, same bit patterns at every breakpoint.
bool bit_identical(const PiecewiseFn& a, const PiecewiseFn& b) {
  if (a.piece_count() != b.piece_count()) return false;
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    const Piece pa = a.pieces[i], pb = b.pieces[i];
    if (pa.id != pb.id ||
        std::bit_cast<std::uint64_t>(pa.iv.lo) !=
            std::bit_cast<std::uint64_t>(pb.iv.lo) ||
        std::bit_cast<std::uint64_t>(pa.iv.hi) !=
            std::bit_cast<std::uint64_t>(pb.iv.hi)) {
      return false;
    }
  }
  return true;
}

// Runs parallel_envelope on the mesh and the hypercube, adaptive off and
// on, and counts the runs whose envelope is not bit-identical to the serial
// oracle's.  `where` names the first such run.
template <class Family>
int count_parallel_mismatches(const Family& fam, int s_bound, bool take_min,
                              std::string* where) {
  const PiecewiseFn ser = envelope_serial_all(fam, take_min);
  int mismatches = 0;
  for (int cube = 0; cube < 2; ++cube) {
    for (bool adaptive : {false, true}) {
      Machine m = cube ? envelope_machine_hypercube(fam.size(), s_bound)
                       : envelope_machine_mesh(fam.size(), s_bound);
      PiecewiseFn par =
          parallel_envelope(m, fam, s_bound, take_min, nullptr, adaptive);
      if (!bit_identical(par, ser)) {
        if (mismatches++ == 0) {
          *where = m.topology().name() +
                   (adaptive ? " adaptive" : "") +
                   (take_min ? " min" : " max");
        }
      }
    }
  }
  return mismatches;
}

PolyFamily random_family(Rng& rng, int n, int max_deg) {
  std::vector<Polynomial> fns;
  for (int i = 0; i < n; ++i) {
    int deg = rng.uniform_int(0, max_deg);
    std::vector<double> c(static_cast<std::size_t>(deg) + 1);
    for (double& x : c) x = rng.uniform(-2.0, 2.0);
    fns.push_back(Polynomial(c));
  }
  return PolyFamily(std::move(fns));
}

TEST(ParallelEnvelope, MatchesSerialOnSmallFamily) {
  PolyFamily fam({Polynomial({0.0, 1.0}), Polynomial({3.0}),
                  Polynomial({6.0, -0.5})});
  Machine mesh = envelope_machine_mesh(fam.size(), 1);
  PiecewiseFn par = parallel_envelope(mesh, fam, 1);
  PiecewiseFn ser = lower_envelope_serial(fam);
  EXPECT_TRUE(bit_identical(par, ser))
      << par.to_string() << " vs " << ser.to_string();
}

// Property: the machine envelope must agree with the serial oracle on both
// topologies, for lower and upper envelopes, across sizes and degrees.
class ParallelEnvelopeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(ParallelEnvelopeProperty, AgreesWithSerialOracle) {
  auto [which_machine, n, max_deg, take_min] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 1000 + max_deg * 10 + take_min +
                                     which_machine * 7));
  PolyFamily fam = random_family(rng, n, max_deg);
  Machine m = which_machine == 0 ? envelope_machine_mesh(fam.size(), max_deg)
                                 : envelope_machine_hypercube(fam.size(), max_deg);
  EnvelopeRunStats stats;
  PiecewiseFn par = parallel_envelope(m, fam, max_deg, take_min, &stats);
  PiecewiseFn ser = envelope_serial_all(fam, take_min);
  EXPECT_TRUE(bit_identical(par, ser))
      << "machine=" << m.topology().name() << "\n"
      << par.to_string() << "\n" << ser.to_string();
  Machine m2 = which_machine == 0
                   ? envelope_machine_mesh(fam.size(), max_deg)
                   : envelope_machine_hypercube(fam.size(), max_deg);
  PiecewiseFn adaptive =
      parallel_envelope(m2, fam, max_deg, take_min, nullptr, true);
  EXPECT_TRUE(bit_identical(adaptive, ser)) << "adaptive";
  EXPECT_GE(stats.levels, 1u);
  // Lemma 2.2 audit inside the parallel pipeline.
  EXPECT_TRUE(is_davenport_schinzel(par.origin_sequence(), n, max_deg));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelEnvelopeProperty,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(2, 5, 9, 17),
                       ::testing::Values(1, 2, 3), ::testing::Bool()));

// The hull-membership angle families (Section 4.2): partial functions, G
// and B sides, both extrema, at family sizes that are not powers of two.
// These are the envelopes where a halving oracle and the machine's
// bottom-up tree used to disagree in the last bits of a breakpoint.
TEST(ParallelEnvelope, AngleFamiliesMatchSerialBitForBit) {
  int runs = 0, mismatches = 0;
  std::string first;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (std::size_t points : {6u, 7u, 12u}) {
      Rng rng(seed * 101 + points);
      MotionSystem sys = random_motion_system(rng, points, 2, 2);
      RelativeMotion rel = RelativeMotion::around(sys, 0);
      const int s_bound = 4 * std::max(1, sys.motion_degree());
      for (bool positive : {true, false}) {
        AngleFamily fam(&rel, positive);
        for (bool take_min : {true, false}) {
          std::string where;
          int bad = count_parallel_mismatches(fam, s_bound, take_min, &where);
          runs += 4;  // mesh and hypercube, adaptive off and on
          if (bad > 0 && mismatches == 0) {
            first = where + (positive ? " G" : " B") + " seed " +
                    std::to_string(seed) + " points " + std::to_string(points);
          }
          mismatches += bad;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << mismatches << " of " << runs
                           << " parallel runs differ from the oracle; first: "
                           << first;
}

// Functions with jumps (Lemma 3.3): 2 branches per motion, so odd motion
// counts give family sizes that are not powers of two.  Cubic branches:
// their crossings come from root isolation, whose last bits depend on
// where the search starts, i.e. on the cell that asks.
TEST(ParallelEnvelope, JumpFamiliesMatchSerialBitForBit) {
  auto cubic = [](Rng& rng) {
    return Polynomial({rng.uniform(-4, 4), rng.uniform(-1, 1),
                       rng.uniform(-1, 1) / 2, rng.uniform(-1, 1) / 3});
  };
  int runs = 0, mismatches = 0;
  std::string first;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    for (int motions : {3, 5, 7, 11}) {
      Rng rng(seed * 211 + static_cast<std::uint64_t>(motions));
      std::vector<JumpMotion> ms;
      for (int i = 0; i < motions; ++i) {
        Polynomial before = cubic(rng);
        Polynomial after = cubic(rng);
        ms.push_back(JumpMotion{before, after, rng.uniform(0.5, 8.0)});
      }
      JumpFamily fam(std::move(ms));
      for (bool take_min : {true, false}) {
        std::string where;
        // 3 crossings per branch pair, plus 2 window ends (Theorem 3.4).
        int bad = count_parallel_mismatches(fam, 8, take_min, &where);
        runs += 4;  // mesh and hypercube, adaptive off and on
        if (bad > 0 && mismatches == 0) {
          first = where + " seed " + std::to_string(seed) + " motions " +
                  std::to_string(motions);
        }
        mismatches += bad;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << mismatches << " of " << runs
                           << " parallel runs differ from the oracle; first: "
                           << first;
}

// The merge tree acquires and releases piece buffers in balance, so
// repeated builds at a size that is not a power of two keep the caller's
// PiecePool at its high-water mark.  Run serially, so that every buffer
// comes from and returns to this thread's pool.
TEST(ParallelEnvelope, PiecePoolStaysBoundedAtOddSizes) {
  const unsigned threads = host_threads();
  set_host_threads(1);
  Rng rng(88);
  PolyFamily fam = random_family(rng, 100, 2);
  auto build = [&fam] {
    Machine m = envelope_machine_mesh(fam.size(), 2);
    parallel_envelope(m, fam, 2);
  };
  build();
  const std::size_t warm = thread_piece_pool().free_pieces.size();
  for (int i = 0; i < 20; ++i) build();
  EXPECT_LE(thread_piece_pool().free_pieces.size(), warm);
  set_host_threads(threads);
}

TEST(ParallelEnvelope, MachineSizesFollowLambda) {
  // Theorem 3.2 machine sizes: power of 4 (mesh) / 2 (hypercube) covering
  // lambda(n, s).
  Machine mesh = envelope_machine_mesh(10, 2);
  EXPECT_GE(mesh.size(), lambda_upper_bound(16, 2));
  auto* mt = dynamic_cast<const MeshTopology*>(&mesh.topology());
  ASSERT_NE(mt, nullptr);
  Machine cube = envelope_machine_hypercube(10, 2);
  EXPECT_GE(cube.size(), lambda_upper_bound(16, 2));
}

TEST(ParallelEnvelope, MeshCostIsThetaSqrtLambda) {
  // Theorem 3.2: Theta(lambda_M^(1/2)(n, s)) mesh rounds.  Normalized cost
  // must flatten as n quadruples.
  std::vector<double> norm;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    Rng rng(n);
    PolyFamily fam = random_family(rng, static_cast<int>(n), 2);
    Machine m = envelope_machine_mesh(n, 2);
    CostMeter meter(m.ledger());
    parallel_envelope(m, fam, 2);
    norm.push_back(static_cast<double>(meter.elapsed().rounds) /
                   std::sqrt(static_cast<double>(m.size())));
  }
  for (std::size_t i = 1; i < norm.size(); ++i) {
    EXPECT_LT(std::abs(norm[i] - norm[i - 1]) / norm[i - 1], 0.4)
        << "step " << i;
  }
}

TEST(ParallelEnvelope, HypercubeCostIsThetaLog2) {
  // Theta(log^2 n) hypercube rounds: normalized by log^2(P) must flatten.
  std::vector<double> norm;
  for (std::size_t n : {16u, 64u, 256u, 1024u}) {
    Rng rng(n);
    PolyFamily fam = random_family(rng, static_cast<int>(n), 2);
    Machine m = envelope_machine_hypercube(n, 2);
    CostMeter meter(m.ledger());
    parallel_envelope(m, fam, 2);
    double lg = std::log2(static_cast<double>(m.size()));
    norm.push_back(static_cast<double>(meter.elapsed().rounds) / (lg * lg));
  }
  for (std::size_t i = 1; i < norm.size(); ++i) {
    EXPECT_LT(std::abs(norm[i] - norm[i - 1]) / norm[i - 1], 0.4)
        << "step " << i;
  }
}

TEST(ParallelEnvelope, SingleFunction) {
  PolyFamily fam({Polynomial({2.0, -1.0})});
  Machine m = envelope_machine_hypercube(1, 1);
  PiecewiseFn env = parallel_envelope(m, fam, 1);
  ASSERT_EQ(env.piece_count(), 1u);
  EXPECT_EQ(env.pieces[0].id, 0);
}


TEST(AdaptiveEnvelope, MatchesStandardResult) {
  Rng rng(55);
  PolyFamily fam = random_family(rng, 40, 3);
  Machine m1 = envelope_machine_mesh(40, 3);
  PiecewiseFn std_env = parallel_envelope(m1, fam, 3);
  Machine m2 = envelope_machine_mesh(40, 3);
  PiecewiseFn ad_env = parallel_envelope(m2, fam, 3, true, nullptr,
                                         /*adaptive=*/true);
  EXPECT_TRUE(bit_identical(std_env, ad_env));
}

TEST(AdaptiveEnvelope, BestCaseMeshIsCheaper) {
  // Section 3's observation: when the envelope collapses (here one function
  // dominates everywhere), the adaptive submesh scheme beats the
  // worst-case-sized run on the mesh.
  std::size_t n = 256;
  std::vector<Polynomial> fns;
  fns.push_back(Polynomial::constant(-1000.0));  // dominates forever
  Rng rng(66);
  for (std::size_t i = 1; i < n; ++i) {
    fns.push_back(Polynomial(
        {rng.uniform(0.0, 5.0), rng.uniform(-1, 1), rng.uniform(0.0, 1.0)}));
  }
  PolyFamily fam(std::move(fns));
  Machine m1 = envelope_machine_mesh(n, 4);
  CostMeter c1(m1.ledger());
  parallel_envelope(m1, fam, 4);
  Machine m2 = envelope_machine_mesh(n, 4);
  CostMeter c2(m2.ledger());
  PiecewiseFn env = parallel_envelope(m2, fam, 4, true, nullptr, true);
  EXPECT_LE(env.piece_count(), 3u);
  EXPECT_LT(c2.elapsed().rounds, c1.elapsed().rounds * 3 / 4)
      << "adaptive should save at least 25% here";
}

TEST(AdaptiveEnvelope, HypercubeGainsLittle) {
  // "The same is not true of the hypercube": log(width) shrinks by at most
  // a constant factor, so the adaptive run saves much less relative cost.
  std::size_t n = 256;
  std::vector<Polynomial> fns;
  fns.push_back(Polynomial::constant(-1000.0));
  Rng rng(67);
  for (std::size_t i = 1; i < n; ++i) {
    fns.push_back(Polynomial(
        {rng.uniform(0.0, 5.0), rng.uniform(-1, 1), rng.uniform(0.0, 1.0)}));
  }
  PolyFamily fam(std::move(fns));
  Machine m1 = envelope_machine_hypercube(n, 4);
  CostMeter c1(m1.ledger());
  parallel_envelope(m1, fam, 4);
  Machine m2 = envelope_machine_hypercube(n, 4);
  CostMeter c2(m2.ledger());
  parallel_envelope(m2, fam, 4, true, nullptr, true);
  double mesh_like_gain =
      static_cast<double>(c2.elapsed().rounds) /
      static_cast<double>(c1.elapsed().rounds);
  // Adaptive stays within 2x of standard either way on the hypercube.
  EXPECT_GT(mesh_like_gain, 0.5);
}

TEST(ParallelEnvelope, GenericCombineMaxEqualsSerialUpper) {
  Rng rng(77);
  PolyFamily fam = random_family(rng, 12, 2);
  Machine m = envelope_machine_mesh(12, 2);
  PiecewiseFn upper = parallel_envelope(m, fam, 2, /*take_min=*/false);
  for (double t = 0.05; t < 30; t *= 1.7) {
    int id = upper.id_at(t);
    int want = extremum_member_at(fam, t, /*take_min=*/false);
    EXPECT_NEAR(fam.value(id, t), fam.value(want, t),
                1e-7 * (1 + std::fabs(fam.value(want, t))));
  }
}

}  // namespace
}  // namespace dyncg
