#pragma once

#include <vector>

#include "pieces/piecewise.hpp"
#include "support/thread_pool.hpp"

// The merge tree of the minimum function h(t) = min{f_0, ..., f_{n-1}}
// (Equation (1)), and its serial construction.
//
// Every one-shot envelope build in the repo walks the same tree, the one
// Theorem 3.2 runs on the machine: level 0 holds one singleton string per
// member, and each level pairs strings (2b, 2b+1) into string b with one
// Lemma 3.1 combine.  An odd last string is carried up unchanged, which is
// the tree of padding the family to ceil_pow2(n) with empty strings.  The
// serial oracle envelope_serial_all, parallel_envelope (Theorem 3.2),
// pram_envelope and serial_envelope_baseline all loop combine_level, so they
// return the same PiecewiseFn bit for bit.  The recurrence is the
// T(n) = 2T(n/2) + O(lambda) divide and conquer of [Atallah 1985], run
// bottom-up instead of by halving.
//
// Piece buffers come from the worker threads' PiecePools: each combine
// releases its two inputs' buffers for the next level, so a steady-state
// build allocates only for high-water-mark growth.
namespace dyncg {

// Level 0 of the merge tree: string b is the singleton of member b.
template <class Family>
std::vector<PiecewiseFn> singleton_strings(const Family& fam) {
  std::vector<PiecewiseFn> strings(fam.size());
  parallel_for(fam.size(), [&](std::size_t b) {
    strings[b].pieces = thread_piece_pool().acquire_pieces();
    singleton_into(fam, static_cast<int>(b), strings[b]);
  });
  return strings;
}

// One level of the merge tree, in place: string b becomes the combine of
// strings 2b and 2b+1, an odd last string moves up unchanged, and `strings`
// shrinks to ceil(size / 2).  The pairs are independent and run across host
// threads.
template <class Family>
void combine_level(const Family& fam, std::vector<PiecewiseFn>& strings,
                   bool take_min) {
  parallel_for(strings.size() / 2, [&](std::size_t b) {
    PiecewiseFn& left = strings[2 * b];
    PiecewiseFn& right = strings[2 * b + 1];
    PiecePool& pool = thread_piece_pool();
    PiecewiseFn combined{pool.acquire_pieces()};
    combine_extremum_into(fam, left, right, take_min, pool, combined);
    pool.release_pieces(std::move(left.pieces));
    pool.release_pieces(std::move(right.pieces));
    left = std::move(combined);
  });
  // Pair b's result sits in slot 2b; the carried string in the last slot.
  const std::size_t next = (strings.size() + 1) / 2;
  for (std::size_t b = 1; b < next; ++b) {
    strings[b] = std::move(strings[2 * b]);
  }
  strings.resize(next);
}

// Lower envelope of the whole family; pass take_min = false for the upper
// envelope (maximum function).  The correctness oracle for the machine
// implementations and the serial baseline in the Section 6 benches.
template <class Family>
PiecewiseFn envelope_serial_all(const Family& fam, bool take_min = true) {
  if (fam.size() == 0) return PiecewiseFn{};
  std::vector<PiecewiseFn> strings = singleton_strings(fam);
  while (strings.size() > 1) combine_level(fam, strings, take_min);
  return std::move(strings[0]);
}

// Convenience wrappers for polynomial families.
PiecewiseFn lower_envelope_serial(const PolyFamily& fam);
PiecewiseFn upper_envelope_serial(const PolyFamily& fam);

// Brute-force evaluation of the envelope at a time point, for tests: the
// index of the minimal (or maximal) member at t, with ties broken toward the
// smaller id.
int extremum_member_at(const PolyFamily& fam, double t, bool take_min);

}  // namespace dyncg
