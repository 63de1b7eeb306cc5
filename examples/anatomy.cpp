// Anatomy of a Theorem 4.5 run: where do the rounds go?
//
// Traces one hull-membership computation and reads the paper's own steps
// off its spans: the four Theorem 3.4 partial envelopes (a0, b0, c0, d0 —
// the four "envelope.parallel" children of "dyncg.hull_membership", in call
// order) and the remainder, the indicator passes (A0/B0) and the final
// packing.  Runs on both a mesh and a hypercube and prints the share of
// each step.  Self-checks that the steps sum to the machine's whole ledger
// and that the answer agrees with the brute-force angular-gap oracle.
//
//   $ ./anatomy [n]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "dyncg/hull_membership.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"

namespace {

using namespace dyncg;

struct Part {
  const char* label;
  CostSnapshot cost;
  double ms;  // host time
};

bool fits_in(const CostSnapshot& part, const CostSnapshot& whole) {
  return part.rounds <= whole.rounds && part.messages <= whole.messages &&
         part.local_ops <= whole.local_ops;
}

// Sample times (away from membership boundaries) where the run's answer
// disagrees with the brute-force oracle.
int oracle_mismatches(const MotionSystem& sys, const IntervalSet& hit) {
  int bad = 0;
  for (double t = 0.0171; t < 60.0; t = t * 1.31 + 0.013) {
    bool near_boundary = false;
    for (const Interval& iv : hit.intervals()) {
      if (std::fabs(t - iv.lo) < 2e-3 ||
          (!std::isinf(iv.hi) && std::fabs(t - iv.hi) < 2e-3)) {
        near_boundary = true;
      }
    }
    if (!near_boundary &&
        hit.contains(t) != brute_force_is_extreme(sys, 0, t)) {
      std::printf("MISMATCH at t = %.4f\n", t);
      ++bad;
    }
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 64;

  Rng rng(2026);
  MotionSystem sys = random_motion_system(rng, n, 2, 2);
  const char* kEnvelopeLabels[] = {
      "envelope a0 = min G (Thm 3.4)", "envelope b0 = max G",
      "envelope c0 = min B", "envelope d0 = max B"};
  trace::enable();

  int failures = 0;
  for (int which = 0; which < 2; ++which) {
    Machine m = which == 0 ? hull_membership_machine_mesh(sys)
                           : hull_membership_machine_hypercube(sys);
    std::printf("=== %s (%zu PEs, n = %zu, k = %d) ===\n",
                m.topology().name().c_str(), m.size(), n,
                sys.motion_degree());
    trace::clear();
    IntervalSet result = hull_membership_intervals(m, sys, 0);
    const std::vector<trace::Event> events = trace::snapshot();

    const trace::Event* whole = nullptr;
    for (const trace::Event& e : events) {
      if (e.name == "dyncg.hull_membership") whole = &e;
    }
    if (whole == nullptr) {
      std::printf("FAIL: no dyncg.hull_membership span\n");
      return 1;
    }
    std::vector<const trace::Event*> children;
    for (const trace::Event& e : events) {
      if (e.name == "envelope.parallel" && e.tid == whole->tid &&
          e.depth == whole->depth + 1) {
        children.push_back(&e);
      }
    }
    std::vector<Part> parts;
    CostSnapshot envelopes;
    double envelopes_ms = 0.0;
    for (std::size_t i = 0; i < children.size() && i < 4; ++i) {
      parts.push_back(Part{kEnvelopeLabels[i], children[i]->cost,
                           static_cast<double>(children[i]->dur_ns) * 1e-6});
      envelopes += parts.back().cost;
      envelopes_ms += parts.back().ms;
    }
    const double whole_ms = static_cast<double>(whole->dur_ns) * 1e-6;
    if (children.size() != 4 || !fits_in(envelopes, whole->cost) ||
        envelopes_ms > whole_ms) {
      std::printf("FAIL: expected four envelope spans inside the run\n");
      return 1;
    }
    parts.push_back(Part{"indicators A0/B0/C0/D0 + pack",
                         whole->cost - envelopes, whole_ms - envelopes_ms});

    CostSnapshot sum;
    for (const Part& p : parts) sum += p.cost;
    if (sum != m.ledger().snapshot()) {
      std::printf("FAIL: the steps sum to %s, the machine paid %s\n",
                  sum.to_string().c_str(),
                  m.ledger().snapshot().to_string().c_str());
      ++failures;
    }

    std::printf("phase breakdown (%llu rounds, %llu messages total):\n",
                static_cast<unsigned long long>(sum.rounds),
                static_cast<unsigned long long>(sum.messages));
    for (const Part& p : parts) {
      double share = sum.rounds == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(p.cost.rounds) /
                               static_cast<double>(sum.rounds);
      std::printf(
          "  %-32s %10llu rounds  %5.1f%%  %12llu msgs  (%llu local)"
          "  %8.2f ms host\n",
          p.label, static_cast<unsigned long long>(p.cost.rounds), share,
          static_cast<unsigned long long>(p.cost.messages),
          static_cast<unsigned long long>(p.cost.local_ops), p.ms);
    }
    std::printf("P0 is a hull vertex during %s\n\n",
                result.to_string().c_str());
    failures += oracle_mismatches(sys, result);
  }
  if (failures != 0) {
    std::printf("FAIL: %d check(s) failed\n", failures);
    return 1;
  }
  return 0;
}
