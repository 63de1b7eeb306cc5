#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include "crcw_network_oracle.hpp"
#include "machine/faults.hpp"
#include "machine/other_topologies.hpp"
#include "ops/basic.hpp"
#include "ops/crcw.hpp"
#include "ops/sorting.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

Machine mesh16() { return Machine::mesh_for(16); }

TEST(OpsReduce, SumAndMin) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 1L);
  ops::reduce(m, v, std::plus<long>{});
  for (long x : v) EXPECT_EQ(x, 136);
  std::vector<long> w{5, 3, 9, 1, 7, 2, 8, 6, 4, 0, 11, 12, 13, 14, 15, 10};
  ops::reduce(m, w, [](long a, long b) { return std::min(a, b); });
  for (long x : w) EXPECT_EQ(x, 0);
}

TEST(OpsReduce, BlockWidths) {
  Machine m = mesh16();
  std::vector<long> v(16, 1);
  ops::reduce(m, v, std::plus<long>{}, 4);
  for (long x : v) EXPECT_EQ(x, 4);
}

TEST(OpsReduce, NonCommutativeRespectsRankOrder) {
  Machine m = Machine::hypercube_for(8);
  std::vector<std::string> v{"a", "b", "c", "d", "e", "f", "g", "h"};
  ops::reduce(m, v, [](const std::string& x, const std::string& y) {
    return x + y;
  });
  for (const auto& s : v) EXPECT_EQ(s, "abcdefgh");
}


TEST(OpsReduce, SegmentedReduceArbitraryStrings) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 1L);  // 1..16
  std::vector<char> seg(16, 0);
  seg[0] = seg[3] = seg[9] = seg[10] = 1;  // strings 0-2, 3-8, 9, 10-15
  ops::segmented_reduce(m, v, seg, std::plus<long>{});
  long s1 = 1 + 2 + 3, s2 = 4 + 5 + 6 + 7 + 8 + 9, s3 = 10,
       s4 = 11 + 12 + 13 + 14 + 15 + 16;
  std::vector<long> expect{s1, s1, s1, s2, s2, s2, s2, s2, s2,
                           s3, s4, s4, s4, s4, s4, s4};
  EXPECT_EQ(v, expect);
}

TEST(OpsReduce, SegmentedReduceMinOverUnevenStrings) {
  Machine m = Machine::hypercube_for(8);
  std::vector<long> v{5, 2, 9, 7, 1, 8, 4, 6};
  std::vector<char> seg{1, 0, 0, 0, 0, 1, 0, 0};  // 0-4 and 5-7
  ops::segmented_reduce(m, v, seg,
                        [](long a, long b) { return std::min(a, b); });
  std::vector<long> expect{1, 1, 1, 1, 1, 4, 4, 4};
  EXPECT_EQ(v, expect);
}

TEST(OpsReduce, SegmentedReduceSingleString) {
  Machine m = mesh16();
  std::vector<long> v(16, 2);
  std::vector<char> seg(16, 0);
  seg[0] = 1;
  ops::segmented_reduce(m, v, seg, std::plus<long>{});
  for (long x : v) EXPECT_EQ(x, 32);
}

TEST(OpsBroadcast, FromAnySource) {
  for (std::size_t src : {0u, 3u, 15u}) {
    Machine m = mesh16();
    std::vector<long> v(16, -1);
    v[src] = 42;
    ops::broadcast(m, v, src);
    for (long x : v) EXPECT_EQ(x, 42);
  }
}

// charge_broadcast prices exactly what a broadcast of real registers
// charges: the same ledger, the same fault penalties and counters, and the
// same ops.broadcast > ops.reduce span tree with the same cost deltas.
TEST(OpsBroadcast, ChargeOnlyMatchesDataBroadcast) {
  FaultPlan plan = FaultPlan::parse("link:0-1@0..,drop:2-3@4").value();
  struct Run {
    CostSnapshot cost;
    std::string faults;
    std::vector<std::string> spans;
  };
  auto run = [&](bool mesh, bool faulted, std::size_t width,
                 bool charge_only) {
    Machine m = mesh ? Machine::mesh_for(64) : Machine::hypercube_for(64);
    if (faulted) m.set_fault_plan(&plan);
    trace::clear();
    if (charge_only) {
      ops::charge_broadcast(m, width);
    } else {
      std::vector<int> token(m.size(), 0);
      ops::broadcast(m, token, 0, width);
    }
    Run out{m.ledger().snapshot(), m.fault_report(), {}};
    for (const trace::Event& e : trace::snapshot()) {
      out.spans.push_back(e.name + "@" + std::to_string(e.depth) + " " +
                          e.cost.to_string());
    }
    return out;
  };
  trace::enable();
  for (bool mesh : {true, false}) {
    for (bool faulted : {false, true}) {
      for (std::size_t width : {0u, 1u, 4u, 64u}) {
        Run data = run(mesh, faulted, width, false);
        Run charged = run(mesh, faulted, width, true);
        EXPECT_EQ(charged.cost, data.cost);
        EXPECT_EQ(charged.faults, data.faults);
        EXPECT_EQ(charged.spans, data.spans);
        EXPECT_GE(charged.spans.size(), 2u);  // plus fault.recover spans
      }
    }
  }
  trace::disable();
  trace::clear();
}

TEST(OpsPrefix, InclusiveScan) {
  Machine m = mesh16();
  std::vector<long> v(16, 1);
  ops::prefix(m, v, std::plus<long>{});
  for (std::size_t r = 0; r < 16; ++r) EXPECT_EQ(v[r], static_cast<long>(r + 1));
}

TEST(OpsPrefix, SegmentedScan) {
  Machine m = mesh16();
  std::vector<long> v(16, 1);
  std::vector<char> seg(16, 0);
  seg[0] = seg[5] = seg[11] = 1;
  ops::segmented_prefix(m, v, seg, std::plus<long>{});
  std::vector<long> expect{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5};
  EXPECT_EQ(v, expect);
}

TEST(OpsShift, UpAndDown) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::shift_up(m, v, 3, -1L);
  EXPECT_EQ(v[0], -1);
  EXPECT_EQ(v[2], -1);
  EXPECT_EQ(v[3], 0);
  EXPECT_EQ(v[15], 12);
  std::iota(v.begin(), v.end(), 0L);
  ops::shift_down(m, v, 2, -1L);
  EXPECT_EQ(v[0], 2);
  EXPECT_EQ(v[13], 15);
  EXPECT_EQ(v[14], -1);
}

TEST(OpsShift, BlockLocal) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::shift_up(m, v, 1, -1L, 4);
  // Each block of 4 shifts independently.
  std::vector<long> expect{-1, 0, 1, 2, -1, 4, 5, 6, -1, 8, 9, 10, -1, 12, 13, 14};
  EXPECT_EQ(v, expect);
}

TEST(OpsPack, CompressesFlaggedItems) {
  Machine m = mesh16();
  std::vector<std::optional<long>> v(16);
  for (std::size_t r = 0; r < 16; r += 3) v[r] = static_cast<long>(r);
  std::vector<std::size_t> counts;
  ops::pack(m, v, &counts);
  ASSERT_TRUE(v[0].has_value());
  std::vector<long> got;
  for (auto& x : v) {
    if (x.has_value()) got.push_back(*x);
  }
  EXPECT_EQ(got, (std::vector<long>{0, 3, 6, 9, 12, 15}));
  for (std::size_t r = 0; r < 6; ++r) EXPECT_TRUE(v[r].has_value());
  for (std::size_t r = 6; r < 16; ++r) EXPECT_FALSE(v[r].has_value());
  for (std::size_t c : counts) EXPECT_EQ(c, 6u);
}

// --- sorting ---------------------------------------------------------------

class SortCorrectness : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SortCorrectness, BitonicSortsRandomInput) {
  auto [which, seed] = GetParam();
  Machine m = which == 0 ? Machine::mesh_for(64) : Machine::hypercube_for(64);
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<long> v(64);
  for (long& x : v) x = rng.uniform_int(-1000, 1000);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  ops::bitonic_sort(m, v);
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SortCorrectness,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Range(0, 10)));

TEST(OpsSort, BlockSort) {
  Machine m = mesh16();
  std::vector<long> v{4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9, 16, 15, 14, 13};
  ops::bitonic_sort(m, v, std::less<long>{}, 4);
  std::vector<long> expect{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  EXPECT_EQ(v, expect);
}

TEST(OpsSort, CustomComparatorDescending) {
  Machine m = mesh16();
  std::vector<long> v(16);
  std::iota(v.begin(), v.end(), 0L);
  ops::bitonic_sort(m, v, std::greater<long>{});
  for (std::size_t r = 0; r + 1 < 16; ++r) EXPECT_GE(v[r], v[r + 1]);
}

TEST(OpsMerge, MergesTwoSortedHalves) {
  Machine m = mesh16();
  std::vector<long> v{1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6, 8, 10, 12, 14};
  ops::bitonic_merge(m, v);
  for (std::size_t r = 0; r < 16; ++r) EXPECT_EQ(v[r], static_cast<long>(r));
}

TEST(OpsMerge, CheaperThanSort) {
  Machine ms = mesh16();
  std::vector<long> v{1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6, 8, 10, 12, 14};
  CostMeter meter(ms.ledger());
  ops::bitonic_merge(ms, v);
  auto merge_cost = meter.elapsed();

  Machine ms2 = mesh16();
  std::vector<long> w(16);
  std::iota(w.rbegin(), w.rend(), 0L);
  CostMeter meter2(ms2.ledger());
  ops::bitonic_sort(ms2, w);
  auto sort_cost = meter2.elapsed();
  EXPECT_LT(merge_cost.rounds, sort_cost.rounds);
}

TEST(OpsSort, OddEvenTransposition) {
  Machine m = mesh16();
  Rng rng(3);
  std::vector<long> v(16);
  for (long& x : v) x = rng.uniform_int(0, 100);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  CostMeter meter(m.ledger());
  ops::odd_even_transposition_sort(m, v);
  EXPECT_EQ(v, expect);
  // Theta(n) rounds.
  EXPECT_EQ(meter.elapsed().rounds, 16u);
}

TEST(OpsSort, Shearsort) {
  Machine m = Machine::mesh_for(64);
  Rng rng(5);
  std::vector<long> v(64);
  for (long& x : v) x = rng.uniform_int(0, 1000);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  ops::shearsort(m, v);
  EXPECT_EQ(v, expect);
}

TEST(OpsSort, RandomizedModelSortsAndChargesLogN) {
  Machine m = Machine::hypercube_for(256);
  Rng rng(9);
  std::vector<long> v(256);
  for (long& x : v) x = rng.uniform_int(0, 10000);
  std::vector<long> expect = v;
  std::sort(expect.begin(), expect.end());
  CostMeter meter(m.ledger());
  ops::randomized_sort_model(m, v);
  EXPECT_EQ(v, expect);
  EXPECT_EQ(meter.elapsed().rounds, ops::kFlashsortConstant * 8u);
}

// Table 1 scaling: mesh sort rounds must grow like sqrt(n), hypercube like
// log^2 n.
TEST(OpsSortScaling, MeshBitonicIsThetaSqrtN) {
  std::vector<double> ratio;
  for (std::size_t n : {64u, 256u, 1024u, 4096u}) {
    Machine m(std::make_shared<MeshTopology>(
        static_cast<std::uint32_t>(std::sqrt(static_cast<double>(n))),
        MeshOrder::kShuffledRowMajor));
    std::vector<long> v(n);
    std::iota(v.rbegin(), v.rend(), 0L);
    CostMeter meter(m.ledger());
    ops::bitonic_sort(m, v);
    ratio.push_back(static_cast<double>(meter.elapsed().rounds) /
                    std::sqrt(static_cast<double>(n)));
  }
  // rounds / sqrt(n) approaches a constant: successive quadruplings of n
  // change the normalized cost by less than 35%.
  for (std::size_t i = 1; i < ratio.size(); ++i) {
    EXPECT_LT(std::abs(ratio[i] - ratio[i - 1]) / ratio[i - 1], 0.35)
        << "n step " << i;
  }
}

TEST(OpsSortScaling, HypercubeBitonicIsThetaLog2N) {
  for (std::size_t n : {64u, 256u, 1024u}) {
    Machine m = Machine::hypercube_for(n, CubeOrder::kNatural);
    std::vector<long> v(n);
    std::iota(v.rbegin(), v.rend(), 0L);
    CostMeter meter(m.ledger());
    ops::bitonic_sort(m, v);
    double lg = std::log2(static_cast<double>(n));
    // Exactly log(n)(log(n)+1)/2 stages, one round each in natural order.
    EXPECT_EQ(meter.elapsed().rounds,
              static_cast<std::uint64_t>(lg * (lg + 1) / 2));
  }
}

// --- concurrent read / write ------------------------------------------------

TEST(OpsCrcw, ConcurrentReadExact) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  // PE r owns key 10r with value r*r (r < 8); PEs 8..15 query key 10*(r-8).
  for (std::size_t r = 0; r < 8; ++r) data[r] = std::pair<long, long>{10 * static_cast<long>(r), static_cast<long>(r * r)};
  for (std::size_t r = 8; r < 16; ++r) queries[r] = 10 * (static_cast<long>(r) - 8);
  auto got = ops::concurrent_read<long, long>(m, data, queries);
  for (std::size_t r = 0; r < 8; ++r) EXPECT_FALSE(got[r].has_value());
  for (std::size_t r = 8; r < 16; ++r) {
    ASSERT_TRUE(got[r].has_value()) << r;
    long j = static_cast<long>(r) - 8;
    EXPECT_EQ(*got[r], j * j);
  }
}

TEST(OpsCrcw, ConcurrentReadMissingKey) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  data[0] = std::pair<long, long>{5, 50};
  queries[1] = 5;   // hit
  queries[2] = 6;   // miss
  queries[3] = 4;   // miss (exact match required)
  auto got = ops::concurrent_read<long, long>(m, data, queries);
  EXPECT_EQ(got[1].value_or(-1), 50);
  EXPECT_FALSE(got[2].has_value());
  EXPECT_FALSE(got[3].has_value());
}

TEST(OpsCrcw, PredecessorLocate) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  // Boundaries at 0, 10, 20, 30 with payload = boundary index.
  for (long b = 0; b < 4; ++b) data[static_cast<std::size_t>(b)] = std::pair<long, long>{10 * b, b};
  queries[8] = 15;  // -> boundary 10 (index 1)
  queries[9] = 10;  // exact -> index 1
  queries[10] = 99; // -> index 3
  queries[11] = -1; // before all boundaries -> none
  auto got = ops::concurrent_read<long, long>(m, data, queries,
                                              /*exact_match=*/false);
  EXPECT_EQ(got[8].value_or(-9), 1);
  EXPECT_EQ(got[9].value_or(-9), 1);
  EXPECT_EQ(got[10].value_or(-9), 3);
  EXPECT_FALSE(got[11].has_value());
}

TEST(OpsCrcw, ManyReadersOneKey) {
  // The concurrent part: every PE reads the same key.
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> data(16);
  std::vector<std::optional<long>> queries(16);
  data[7] = std::pair<long, long>{1, 777};
  for (std::size_t r = 0; r < 16; ++r) queries[r] = 1;
  auto got = ops::concurrent_read<long, long>(m, data, queries);
  for (std::size_t r = 0; r < 16; ++r) EXPECT_EQ(got[r].value_or(-1), 777);
}

TEST(OpsCrcw, ConcurrentWriteCombines) {
  Machine m = mesh16();
  std::vector<std::optional<std::pair<long, long>>> reqs(16);
  std::vector<std::optional<long>> owners(16);
  // Eight writers write r to key r%2; PEs 14,15 own keys 0,1.
  for (std::size_t r = 0; r < 8; ++r) reqs[r] = std::pair<long, long>{static_cast<long>(r % 2), static_cast<long>(r)};
  owners[14] = 0;
  owners[15] = 1;
  auto got = ops::concurrent_write<long, long>(
      m, reqs, owners, [](long a, long b) { return a + b; });
  EXPECT_EQ(got[14].value_or(-1), 0 + 2 + 4 + 6);
  EXPECT_EQ(got[15].value_or(-1), 1 + 3 + 5 + 7);
  for (std::size_t r = 0; r < 14; ++r) EXPECT_FALSE(got[r].has_value());
}

TEST(OpsCrcw, RoutePermutation) {
  Machine m = mesh16();
  Rng rng(21);
  auto perm = rng.permutation(16);
  std::vector<std::optional<long>> v(16);
  std::vector<std::size_t> dest(16);
  for (std::size_t r = 0; r < 16; ++r) {
    v[r] = static_cast<long>(r);
    dest[r] = perm[r];
  }
  ops::route(m, v, dest);
  for (std::size_t r = 0; r < 16; ++r) {
    ASSERT_TRUE(v[perm[r]].has_value());
    EXPECT_EQ(*v[perm[r]], static_cast<long>(r));
  }
}

// Table 1 check: CR cost tracks the sort cost (2 sorts + scan).
TEST(OpsCrcw, CostTracksSort) {
  Machine m1 = Machine::mesh_for(256);
  std::vector<std::optional<std::pair<long, long>>> data(256);
  std::vector<std::optional<long>> queries(256);
  for (std::size_t r = 0; r < 128; ++r) data[r] = std::pair<long, long>{static_cast<long>(r), 1L};
  for (std::size_t r = 128; r < 256; ++r) queries[r] = static_cast<long>(r - 128);
  CostMeter cr_meter(m1.ledger());
  ops::concurrent_read<long, long>(m1, data, queries);
  auto cr = cr_meter.elapsed();

  Machine m2 = Machine::mesh_for(256);
  std::vector<long> v(256);
  std::iota(v.rbegin(), v.rend(), 0L);
  CostMeter sort_meter(m2.ledger());
  ops::bitonic_sort(m2, v);
  auto st = sort_meter.elapsed();
  EXPECT_GE(cr.rounds, st.rounds);
  EXPECT_LE(cr.rounds, 6 * st.rounds);
}

// --- host-native CR/CW and the charge-only walker vs the executed network ---

// One machine family at 64 PEs, bare or under a fault plan that every
// family survives.  The plan outlives the machines built from it.
struct NetworkCase {
  const char* family;
  bool faulted;
};

class CrcwNetworkOracle : public ::testing::TestWithParam<NetworkCase> {
 protected:
  static constexpr std::size_t kPes = 64;

  Machine machine() const {
    std::string_view family = GetParam().family;
    std::shared_ptr<const Topology> topo =
        family == "mesh"        ? make_mesh_for(kPes)
        : family == "hypercube" ? make_hypercube_for(kPes)
        : family == "ccc"       ? make_ccc_for(kPes)
                                : make_shuffle_exchange_for(kPes);
    Machine m(topo);
    DYNCG_ASSERT(m.size() == kPes, "family built an unexpected size");
    m.set_fault_plan(GetParam().faulted ? &plan_ : nullptr);
    return m;
  }

  // Same ledger and same fault telemetry.
  static void expect_same_bill(const Machine& got, const Machine& want) {
    EXPECT_EQ(got.ledger().snapshot(), want.ledger().snapshot());
    EXPECT_EQ(got.fault_report(), want.fault_report());
  }

  // Distinct keys (a shuffled stride), live on about 3/4 of the PEs.
  static std::vector<std::optional<std::pair<long, long>>> distinct_data(
      Rng& rng) {
    std::vector<std::optional<std::pair<long, long>>> data(kPes);
    auto perm = rng.permutation(kPes);
    for (std::size_t r = 0; r < kPes; ++r) {
      if (rng.uniform_int(0, 3) == 0) continue;
      data[r] = std::pair<long, long>{7 * static_cast<long>(perm[r]) - 100,
                                      rng.uniform_int(-1000, 1000)};
    }
    return data;
  }

  static std::vector<std::optional<long>> some_queries(Rng& rng) {
    std::vector<std::optional<long>> queries(kPes);
    for (auto& q : queries) {
      if (rng.uniform_int(0, 3) != 0) q = rng.uniform_int(-120, 360);
    }
    return queries;
  }

  FaultPlan plan_ =
      FaultPlan::parse("link:4-5@0..300,drop:6-7@3,pe:9@50..400").value();
};

TEST_P(CrcwNetworkOracle, WalkerBillsWhatTheExecutedSortsBill) {
  Rng rng(5);
  for (std::size_t slots : {1u, 2u, 4u}) {
    std::vector<long> file(kPes * slots);
    for (long& x : file) x = rng.uniform_int(0, 1 << 20);
    Machine executed = machine();
    if (slots == 2) {
      crcw_oracle::sort_doubled(executed, file, std::less<long>{});
    } else {
      ops::bitonic_sort_slotted(executed, file, slots);
    }
    EXPECT_TRUE(std::is_sorted(file.begin(), file.end()));
    Machine charged = machine();
    ops::charge_bitonic_sort(charged, slots);
    expect_same_bill(charged, executed);
  }
}

TEST_P(CrcwNetworkOracle, ReadMatchesTheNetworkOnDistinctKeys) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 101);
    auto data = distinct_data(rng);
    auto queries = some_queries(rng);
    for (bool exact : {true, false}) {
      Machine host = machine();
      Machine network = machine();
      auto got = ops::concurrent_read<long, long>(host, data, queries, exact);
      auto want = crcw_oracle::concurrent_read<long, long>(network, data,
                                                           queries, exact);
      EXPECT_EQ(got, want) << "seed " << seed << " exact " << exact;
      expect_same_bill(host, network);
    }
  }
}

TEST_P(CrcwNetworkOracle, WriteMatchesTheNetworkUnderPlus) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 202);
    std::vector<std::optional<std::pair<long, long>>> writes(kPes);
    std::vector<std::optional<long>> owners(kPes);
    for (std::size_t r = 0; r < kPes; ++r) {
      if (rng.uniform_int(0, 4) != 0) {
        writes[r] = std::pair<long, long>{rng.uniform_int(0, 12),
                                          rng.uniform_int(-50, 50)};
      }
      // Some keys have several owners, some none, some no writers.
      if (rng.uniform_int(0, 2) == 0) owners[r] = rng.uniform_int(0, 16);
    }
    auto plus = [](long a, long b) { return a + b; };
    Machine host = machine();
    Machine network = machine();
    auto got = ops::concurrent_write<long, long>(host, writes, owners, plus);
    auto want =
        crcw_oracle::concurrent_write<long, long>(network, writes, owners, plus);
    EXPECT_EQ(got, want) << "seed " << seed;
    expect_same_bill(host, network);
  }
}

TEST_P(CrcwNetworkOracle, DuplicateKeysReadOneMatchingValue) {
  Rng rng(303);
  std::vector<std::optional<std::pair<long, long>>> data(kPes);
  for (std::size_t r = 0; r < kPes; r += 2) {
    data[r] = std::pair<long, long>{rng.uniform_int(0, 5),
                                    static_cast<long>(r)};  // value = rank
  }
  auto queries = some_queries(rng);
  for (auto& q : queries) {
    if (q) *q = *q % 8;
  }
  for (bool exact : {true, false}) {
    Machine host = machine();
    Machine network = machine();
    auto got = ops::concurrent_read<long, long>(host, data, queries, exact);
    auto want = crcw_oracle::concurrent_read<long, long>(network, data,
                                                         queries, exact);
    expect_same_bill(host, network);
    for (std::size_t r = 0; r < kPes; ++r) {
      if (!queries[r]) {
        EXPECT_FALSE(got[r].has_value());
        continue;
      }
      // The answering key: the query key, or its predecessor.
      std::optional<long> key;
      for (const auto& d : data) {
        if (d && d->first <= *queries[r] && (!key || d->first > *key) &&
            (!exact || d->first == *queries[r])) {
          key = d->first;
        }
      }
      ASSERT_EQ(got[r].has_value(), key.has_value()) << "PE " << r;
      ASSERT_EQ(want[r].has_value(), key.has_value()) << "PE " << r;
      if (!key) continue;
      std::set<long> matching;
      for (const auto& d : data) {
        if (d && d->first == *key) matching.insert(d->second);
      }
      EXPECT_TRUE(matching.count(*got[r])) << "PE " << r;
      EXPECT_TRUE(matching.count(*want[r])) << "PE " << r;
      // The documented choice: the highest-ranked matching data PE.
      EXPECT_EQ(*got[r], *matching.rbegin()) << "PE " << r;
    }
  }
}

TEST_P(CrcwNetworkOracle, ChargeOnlyAccessBillsOneNetworkAccess) {
  Rng rng(404);
  auto data = distinct_data(rng);
  auto queries = some_queries(rng);
  Machine network = machine();
  crcw_oracle::concurrent_read<long, long>(network, data, queries);
  Machine charged = machine();
  ops::charge_concurrent_access(charged);
  expect_same_bill(charged, network);
  if (GetParam().faulted) {
    // The plan is hit, so the equal bills include recovery penalties.
    Machine bare = machine();
    bare.set_fault_plan(nullptr);
    ops::charge_concurrent_access(bare);
    EXPECT_GT(charged.ledger().snapshot().rounds,
              bare.ledger().snapshot().rounds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CrcwNetworkOracle,
    ::testing::Values(NetworkCase{"mesh", false}, NetworkCase{"mesh", true},
                      NetworkCase{"hypercube", false},
                      NetworkCase{"hypercube", true}, NetworkCase{"ccc", false},
                      NetworkCase{"ccc", true}, NetworkCase{"shuffle", false},
                      NetworkCase{"shuffle", true}),
    [](const ::testing::TestParamInfo<NetworkCase>& info) {
      return std::string(info.param.family) +
             (info.param.faulted ? "Faulted" : "Bare");
    });

}  // namespace
}  // namespace dyncg
