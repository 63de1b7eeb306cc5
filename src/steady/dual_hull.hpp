#pragma once

#include <vector>

#include "envelope/parallel_envelope.hpp"
#include "machine/machine.hpp"
#include "ops/sorting.hpp"
#include "poly/rational_germ.hpp"
#include "steady/static_geometry.hpp"
#include "support/trace.hpp"

// Convex hull by point-line duality over a generic ordered field.
//
// A point p is on the upper hull iff its dual line h_p(u) = p.y - u p.x
// appears on the upper envelope of all dual lines; the envelope of n lines
// has at most lambda(n,1) = n pieces, and Theorem 3.2's recursive combine
// builds it in Theta(n^(1/2)) mesh / Theta(log^2 n) hypercube rounds — the
// Table 3/4 hull bounds.
//
// The twist that makes this work for *steady-state* hulls: the envelope
// parameter u does not need to be a real number.  Each combine step only
//   (a) compares two lines at a point of an interval, and
//   (b) computes the single crossing u* = (c2 - c1) / (s1 - s2),
// so any ordered field works.  Over RationalGerm (quotients of polynomial
// germs at infinity) the same code computes the hull of moving points as
// t -> infinity with every predicate a Lemma 5.1-style O(1) sign test —
// closing the gap that a tangent-search merge would leave (see
// EXPERIMENTS.md, Table 3).
namespace dyncg {

// One piece of a line envelope: the line c + s u is the extremum on
// [lo, hi] (infinite ends flagged).
template <class Field>
struct LinePiece {
  Field s{};  // slope
  Field c{};  // intercept
  int id = -1;
  bool lo_inf = true;
  bool hi_inf = true;
  Field lo{};
  Field hi{};
};

namespace dual_detail {

// A representative point strictly inside the (possibly unbounded) cell.
template <class Field>
Field representative(bool lo_inf, const Field& lo, bool hi_inf,
                     const Field& hi) {
  if (lo_inf && hi_inf) return Field(0.0);
  if (lo_inf) return hi - Field(1.0);
  if (hi_inf) return lo + Field(1.0);
  return (lo + hi) * Field(0.5);
}

template <class Field>
void emit(std::vector<LinePiece<Field>>& out, LinePiece<Field> piece) {
  if (!piece.lo_inf && !piece.hi_inf && !(piece.lo < piece.hi)) return;
  if (!out.empty() && out.back().id == piece.id) {
    out.back().hi_inf = piece.hi_inf;
    out.back().hi = piece.hi;
    return;
  }
  out.push_back(std::move(piece));
}

// Lemma 3.1 for line envelopes (s = 1): combine two total envelopes into
// the pointwise min or max.  Pure field operations.
template <class Field>
std::vector<LinePiece<Field>> combine(const std::vector<LinePiece<Field>>& f,
                                      const std::vector<LinePiece<Field>>& g,
                                      bool take_min) {
  std::vector<LinePiece<Field>> out;
  std::size_t fi = 0, gi = 0;
  bool cur_lo_inf = true;
  Field cur_lo{};
  while (fi < f.size() && gi < g.size()) {
    const LinePiece<Field>& pf = f[fi];
    const LinePiece<Field>& pg = g[gi];
    // Cell upper bound: nearest piece end.
    bool hi_inf;
    Field hi{};
    bool advance_f, advance_g;
    if (pf.hi_inf && pg.hi_inf) {
      hi_inf = true;
      advance_f = advance_g = true;
    } else if (pf.hi_inf) {
      hi_inf = false;
      hi = pg.hi;
      advance_f = false;
      advance_g = true;
    } else if (pg.hi_inf) {
      hi_inf = false;
      hi = pf.hi;
      advance_f = true;
      advance_g = false;
    } else if (pf.hi < pg.hi) {
      hi_inf = false;
      hi = pf.hi;
      advance_f = true;
      advance_g = false;
    } else if (pg.hi < pf.hi) {
      hi_inf = false;
      hi = pg.hi;
      advance_f = false;
      advance_g = true;
    } else {
      hi_inf = false;
      hi = pf.hi;
      advance_f = advance_g = true;
    }

    // Within the cell the two lines cross at most once.
    auto winner_at = [&](const Field& u) {
      Field vf = pf.c + pf.s * u;
      Field vg = pg.c + pg.s * u;
      bool f_wins;
      if (vf == vg) {
        // Break the tie by the behaviour just after u: steeper slope loses
        // a min, wins a max; equal lines prefer the smaller id.
        if (pf.s == pg.s) {
          f_wins = pf.id <= pg.id;
        } else {
          f_wins = take_min ? pf.s < pg.s : pg.s < pf.s;
        }
      } else {
        f_wins = take_min ? vf < vg : vg < vf;
      }
      return f_wins;
    };
    auto emit_range = [&](bool a_lo_inf, const Field& a_lo, bool a_hi_inf,
                          const Field& a_hi) {
      Field u = representative(a_lo_inf, a_lo, a_hi_inf, a_hi);
      const LinePiece<Field>& w = winner_at(u) ? pf : pg;
      emit(out, LinePiece<Field>{w.s, w.c, w.id, a_lo_inf, a_hi_inf, a_lo,
                                 a_hi});
    };

    bool split = false;
    Field ustar{};
    if (!(pf.s == pg.s)) {
      ustar = (pg.c - pf.c) / (pf.s - pg.s);
      bool after_lo = cur_lo_inf || (cur_lo < ustar);
      bool before_hi = hi_inf || (ustar < hi);
      split = after_lo && before_hi;
    }
    if (split) {
      emit_range(cur_lo_inf, cur_lo, false, ustar);
      emit_range(false, ustar, hi_inf, hi);
    } else {
      emit_range(cur_lo_inf, cur_lo, hi_inf, hi);
    }

    cur_lo_inf = false;
    cur_lo = hi;
    if (hi_inf) break;
    if (advance_f) ++fi;
    if (advance_g) ++gi;
  }
  return out;
}

// The Theorem 3.2 recursion over n lines with s = 1, on strings that start
// at width max(1, P / ceil_pow2(n)) PEs and double every level.  Computes
// only; charge_line_envelope bills it.
template <class Field>
std::vector<LinePiece<Field>> line_envelope(std::size_t P,
                                            const std::vector<Field>& slopes,
                                            const std::vector<Field>& intercepts,
                                            bool take_min) {
  std::size_t n = slopes.size();
  DYNCG_ASSERT(n >= 1 && n <= P, "need 1 <= n <= P lines");
  std::vector<std::vector<LinePiece<Field>>> level;
  level.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    level.push_back({LinePiece<Field>{slopes[i], intercepts[i],
                                      static_cast<int>(i), true, true,
                                      Field{}, Field{}}});
  }
  std::size_t width = std::max<std::size_t>(1, P / ceil_pow2(n));
  while (level.size() > 1) {
    width *= 2;
    std::vector<std::vector<LinePiece<Field>>> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t b = 0; b + 1 < level.size(); b += 2) {
      next.push_back(combine(level[b], level[b + 1], take_min));
      DYNCG_ASSERT(next.back().size() <= 2 * width,
                   "line envelope exceeded lambda(n,1)");
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level.swap(next);
  }
  return std::move(level[0]);
}

}  // namespace dual_detail

// The charge of one line envelope over n lines on `m`: one local step, then
// one s = 1 combine level per halving of the n strings.  Defined in
// dual_hull.cpp.
void charge_line_envelope(Machine& m, std::size_t n);

// Everything machine_hull_dual bills for n points on `m`: the bitonic sort
// by x, the upper and lower line envelopes and the final pack of the two
// chains into one string.  A function of n and the machine only, so a
// caller that reuses a hull can bill its construction again exactly.
void charge_hull_dual(Machine& m, std::size_t n);

// Envelope of the lines c_i + s_i u (ids = indices), lower (take_min) or
// upper.  The machine runs the Theorem 3.2 recursion with s = 1 charges.
template <class Field>
std::vector<LinePiece<Field>> machine_line_envelope(
    Machine& m, const std::vector<Field>& slopes,
    const std::vector<Field>& intercepts, bool take_min) {
  DYNCG_ASSERT(slopes.size() >= 1 && slopes.size() <= m.size(),
               "need 1 <= n <= P lines");
  charge_line_envelope(m, slopes.size());
  return dual_detail::line_envelope(m.size(), slopes, intercepts, take_min);
}

// Convex hull of distinct points over an ordered field, in ccw order.
// Theta(sort) mesh/hypercube cost; with Field = RationalGerm this is the
// steady-state hull of Proposition 5.4 at the claimed bounds.
template <class Field>
std::vector<Point2<Field>> machine_hull_dual(Machine& m,
                                             std::vector<Point2<Field>> pts) {
  std::size_t n = pts.size();
  DYNCG_ASSERT(n >= 1 && n <= m.size(), "need 1 <= n <= P points");
  if (n <= 2) return pts;
  // The whole schedule is billed up front; the phases below only compute.
  charge_hull_dual(m, n);

  struct Slot {
    bool live = false;
    Point2<Field> p{};
  };
  std::vector<Slot> regs(m.size());
  for (std::size_t i = 0; i < n; ++i) regs[i] = Slot{true, pts[i]};
  {
    TRACE_SPAN("ops.bitonic_sort");
    ops::bitonic_network(regs, [](const Slot& a, const Slot& b) {
      if (a.live != b.live) return a.live;
      if (!a.live) return false;
      return lex_less(a.p, b.p);
    });
  }
  std::vector<Point2<Field>> sorted;
  sorted.reserve(n);
  for (std::size_t r = 0; r < n; ++r) sorted.push_back(regs[r].p);

  // Dual lines h_p(u) = p.y - u p.x.
  std::vector<Field> slopes, intercepts;
  slopes.reserve(n);
  intercepts.reserve(n);
  for (const auto& p : sorted) {
    slopes.push_back(-p.x);
    intercepts.push_back(p.y);
  }
  auto upper = dual_detail::line_envelope(m.size(), slopes, intercepts,
                                          /*take_min=*/false);
  auto lower = dual_detail::line_envelope(m.size(), slopes, intercepts,
                                          /*take_min=*/true);

  // Lower envelope walks the lower hull left-to-right, upper envelope the
  // upper hull right-to-left; ccw = lower chain + upper chain with the
  // shared extreme points dropped.  (For a single shared x-column the two
  // chains are disjoint single points, so the drops are conditional.)
  std::vector<Point2<Field>> ccw;
  for (const auto& piece : lower) {
    ccw.push_back(sorted[static_cast<std::size_t>(piece.id)]);
  }
  std::size_t ub = 0, ue = upper.size();
  if (ub < ue && upper.front().id == lower.back().id) ++ub;
  if (ub < ue && upper[ue - 1].id == lower.front().id) --ue;
  for (std::size_t i = ub; i < ue; ++i) {
    ccw.push_back(sorted[static_cast<std::size_t>(upper[i].id)]);
  }
  return ccw;
}

}  // namespace dyncg
