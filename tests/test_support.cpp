#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "support/ackermann.hpp"
#include "support/ds_sequence.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"

namespace dyncg {
namespace {

TEST(InverseAckermann, SmallValues) {
  // A_1(1) = 2, so alpha(n) = 1 for n <= 2.
  EXPECT_EQ(inverse_ackermann(1), 1);
  EXPECT_EQ(inverse_ackermann(2), 1);
  // A_2(2) = 4.
  EXPECT_EQ(inverse_ackermann(3), 2);
  EXPECT_EQ(inverse_ackermann(4), 2);
  // A_3(3) = tower of three 2s = 16.
  EXPECT_EQ(inverse_ackermann(5), 3);
  EXPECT_EQ(inverse_ackermann(16), 3);
  // Everything representable is <= 4 per [Hart and Sharir 1986].
  EXPECT_EQ(inverse_ackermann(17), 4);
  EXPECT_EQ(inverse_ackermann(std::uint64_t{1} << 62), 4);
}

TEST(InverseAckermann, Monotone) {
  int prev = 0;
  for (std::uint64_t n = 1; n < 1000; ++n) {
    int a = inverse_ackermann(n);
    EXPECT_GE(a, prev);
    prev = a;
  }
}

TEST(Lambda, ClosedForms) {
  // Theorem 2.3: lambda(n, 1) = n, lambda(n, 2) = 2n - 1.
  for (std::uint64_t n = 2; n <= 64; n *= 2) {
    EXPECT_EQ(lambda_upper_bound(n, 1), n);
    EXPECT_EQ(lambda_upper_bound(n, 2), 2 * n - 1);
  }
  EXPECT_EQ(lambda_upper_bound(5, 0), 1u);
  EXPECT_EQ(lambda_upper_bound(1, 3), 1u);
}

TEST(Lambda, SuperadditiveLemma24) {
  // Lemma 2.4: 2 lambda(n, s) <= lambda(2n, s) — check for the closed forms
  // and that our s >= 3 bound preserves it.
  for (int s = 1; s <= 5; ++s) {
    for (std::uint64_t n = 1; n <= 4096; n *= 2) {
      EXPECT_LE(2 * lambda_upper_bound(n, s), lambda_upper_bound(2 * n, s))
          << "n=" << n << " s=" << s;
    }
  }
}

TEST(Lambda, MachineRoundings) {
  EXPECT_EQ(lambda_mesh(5, 1), 16u);       // lambda=5 -> next power of 4
  EXPECT_EQ(lambda_hypercube(5, 1), 8u);   // -> next power of 2
  EXPECT_EQ(lambda_mesh(4, 1), 4u);
  EXPECT_EQ(lambda_hypercube(4, 1), 4u);
  // lambda_M and lambda_H are Theta(lambda): within 4x and 2x.
  for (std::uint64_t n = 2; n <= 1024; n *= 2) {
    EXPECT_LT(lambda_mesh(n, 2), 4 * lambda_upper_bound(n, 2));
    EXPECT_LT(lambda_hypercube(n, 2), 2 * lambda_upper_bound(n, 2));
  }
}

TEST(PowerHelpers, Rounding) {
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(3), 4u);
  EXPECT_EQ(ceil_pow2(4), 4u);
  EXPECT_EQ(ceil_pow4(2), 4u);
  EXPECT_EQ(ceil_pow4(17), 64u);
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(5), 2);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(DsSequence, Validator) {
  // Definition 2.1 forbids alternations of length s + 2.  abab (length 4)
  // is legal for s = 3 but forbidden for s = 2; aba is legal for s = 2.
  std::vector<int> abab{0, 1, 0, 1};
  EXPECT_TRUE(is_davenport_schinzel(abab, 2, 3));
  EXPECT_FALSE(is_davenport_schinzel(abab, 2, 2));
  EXPECT_TRUE(is_davenport_schinzel({0, 1, 0}, 2, 2));
  EXPECT_FALSE(is_davenport_schinzel({0, 1, 0}, 2, 1));
  // Immediate repetition is always forbidden.
  EXPECT_FALSE(is_davenport_schinzel({0, 0}, 1, 3));
  // Out-of-alphabet symbol.
  EXPECT_FALSE(is_davenport_schinzel({0, 2}, 2, 3));
  EXPECT_TRUE(is_davenport_schinzel({}, 0, 1));
}

TEST(DsSequence, LongestAlternation) {
  std::vector<int> seq{0, 2, 1, 0, 2, 1, 0};
  EXPECT_EQ(longest_alternation(seq, 0, 1), 5);  // 0 1 0 1 0
  EXPECT_EQ(longest_alternation(seq, 0, 2), 5);  // 0 2 0 2 0
  EXPECT_EQ(longest_alternation(seq, 1, 2), 4);  // 2 1 2 1
}

TEST(DsSequence, ExactLambdaMatchesTheorem23) {
  // lambda(n, 1) = n.
  for (int n = 1; n <= 5; ++n) EXPECT_EQ(lambda_exact(n, 1), n);
  // lambda(n, 2) = 2n - 1.
  for (int n = 1; n <= 5; ++n) EXPECT_EQ(lambda_exact(n, 2), 2 * n - 1);
  // Known small values of lambda(n, 3): 1, 4, 8 (DS sequences of order 3).
  EXPECT_EQ(lambda_exact(1, 3), 1);
  EXPECT_EQ(lambda_exact(2, 3), 4);
  EXPECT_EQ(lambda_exact(3, 3), 8);
}

TEST(DsSequence, WitnessIsValid) {
  for (int s = 1; s <= 3; ++s) {
    for (int n = 1; n <= 4; ++n) {
      std::vector<int> w = lambda_witness(n, s);
      EXPECT_TRUE(is_davenport_schinzel(w, n, s)) << "n=" << n << " s=" << s;
    }
  }
}

TEST(Rng, DeterministicAndPermutes) {
  Rng a(42), b(42);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  auto p = a.permutation(100);
  std::vector<bool> seen(100, false);
  for (std::size_t v : p) {
    EXPECT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

// --- strict flag parsing (support/flags.hpp) ---------------------------------

TEST(Flags, ParseIntTakesWholeInRangeTokensOnly) {
  EXPECT_EQ(flags::parse_int("--n", "12", 1, 64).value(), 12);
  EXPECT_EQ(flags::parse_int("--n", "-3", -5, 5).value(), -3);
  EXPECT_EQ(flags::parse_int("--n", "64", 1, 64).value(), 64);
  struct Bad {
    const char* tok;
    long min_value;
    long max_value;
    const char* message;
  };
  const Bad bad[] = {
      {"12abc", 1, 64, "--n expects an integer in [1, 64], got '12abc'"},
      {"", 1, 64, "--n expects an integer in [1, 64], got ''"},
      {"0", 1, 64, "--n expects an integer in [1, 64], got '0'"},
      {"65", 1, 64, "--n expects an integer in [1, 64], got '65'"},
      // strtol saturates at LONG_MAX, which is inside this range: only the
      // ERANGE check tells the overflow apart.
      {"99999999999999999999", 0, LONG_MAX,
       "--n expects an integer in [0, 9223372036854775807], got "
       "'99999999999999999999'"},
  };
  for (const Bad& b : bad) {
    StatusOr<long> v = flags::parse_int("--n", b.tok, b.min_value, b.max_value);
    ASSERT_FALSE(v.is_ok()) << b.tok;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(v.status().message(), b.message);
  }
}

[[noreturn]] void flags_test_usage() {
  std::fprintf(stderr, "usage: flags_test\n");
  std::exit(2);
}

// Walks `args` the way the tools do, over one integer flag (--n), one
// string flag (--name) and one switch (--verbose); returns what it read.
std::string walk(std::vector<std::string> args) {
  std::vector<char*> argv = {const_cast<char*>("flags_test")};
  for (std::string& a : args) argv.push_back(a.data());
  flags::Walker w(static_cast<int>(argv.size()), argv.data(), 1,
                  flags_test_usage);
  std::string got;
  while (w.next()) {
    if (w.is("--n")) {
      got += "n=" + std::to_string(w.integer(1, 64)) + ";";
    } else if (w.is("--name")) {
      got += "name=" + w.value() + ";";
    } else if (w.is("--verbose")) {
      got += "verbose;";
    } else {
      w.unknown();
    }
  }
  return got;
}

TEST(Flags, WalkerTakesSeparateAndInlineValues) {
  EXPECT_EQ(walk({"--n", "12", "--name", "a", "--verbose"}),
            "n=12;name=a;verbose;");
  EXPECT_EQ(walk({"--n=12", "--name=a=b"}), "n=12;name=a=b;");
  // An empty inline value is a value; whether it is acceptable is the
  // flag's own decision.
  EXPECT_EQ(walk({"--name="}), "name=;");
  EXPECT_EQ(walk({}), "");
}

TEST(FlagsDeathTest, WalkerRefusesWithMessageThenUsage) {
  EXPECT_EXIT(walk({"--n", "12abc"}), testing::ExitedWithCode(2),
              "error: --n expects an integer in \\[1, 64\\], got "
              "'12abc'\nusage: flags_test");
  EXPECT_EXIT(walk({"--n="}), testing::ExitedWithCode(2),
              "error: --n expects an integer in \\[1, 64\\], got ''");
  EXPECT_EXIT(walk({"--n", "0"}), testing::ExitedWithCode(2),
              "error: --n expects an integer in \\[1, 64\\], got '0'");
  EXPECT_EXIT(walk({"--verbose", "--n"}), testing::ExitedWithCode(2),
              "error: --n needs a value\nusage: flags_test");
  EXPECT_EXIT(walk({"--frobnicate=1"}), testing::ExitedWithCode(2),
              "error: unknown flag '--frobnicate'\nusage: flags_test");
}

}  // namespace
}  // namespace dyncg
