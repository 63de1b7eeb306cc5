#include "dyncg/motion.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace dyncg {

Trajectory Trajectory::fixed(const std::vector<double>& position) {
  std::vector<Polynomial> coords;
  coords.reserve(position.size());
  for (double x : position) coords.push_back(Polynomial::constant(x));
  return Trajectory(std::move(coords));
}

int Trajectory::motion_degree() const {
  int k = 0;
  for (const Polynomial& c : coords_) k = std::max(k, c.degree());
  return k;
}

std::vector<double> Trajectory::position(double t) const {
  std::vector<double> p;
  p.reserve(coords_.size());
  for (const Polynomial& c : coords_) p.push_back(c(t));
  return p;
}

Polynomial Trajectory::distance_squared(const Trajectory& other) const {
  DYNCG_ASSERT(dimension() == other.dimension(),
               "distance between different dimensions");
  // The family-construction setup loop runs once per pair in the register
  // fill of every proximity/all-pairs/collision driver; the kernel-backed
  // assign_difference and the in-place += avoid three temporaries per
  // coordinate while keeping the exact operation order (bit-identical sum).
  Polynomial sum, diff;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    diff.assign_difference(coords_[i], other.coords_[i]);
    sum += diff * diff;
  }
  return sum;
}

Trajectory Trajectory::velocity() const {
  std::vector<Polynomial> d;
  d.reserve(coords_.size());
  for (const Polynomial& c : coords_) d.push_back(c.derivative());
  return Trajectory(std::move(d));
}

Polynomial Trajectory::speed_squared() const {
  Polynomial sum, d;
  for (const Polynomial& c : coords_) {
    d.assign_derivative(c);
    sum += d * d;
  }
  return sum;
}

MotionSystem::MotionSystem(std::size_t dimension,
                           std::vector<Trajectory> points)
    : dim_(dimension), points_(std::move(points)) {
  for (const Trajectory& p : points_) {
    DYNCG_ASSERT(p.dimension() == dim_, "trajectory dimension mismatch");
  }
}

StatusOr<MotionSystem> MotionSystem::try_create(
    std::size_t dimension, std::vector<Trajectory> points) {
  if (dimension < 1) {
    return Status::invalid_argument("motion system dimension must be >= 1");
  }
  if (points.empty()) {
    return Status::invalid_argument("motion system has no points");
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].dimension() != dimension) {
      return Status::invalid_argument(
          "trajectory " + std::to_string(i) + " has dimension " +
          std::to_string(points[i].dimension()) + ", expected " +
          std::to_string(dimension));
    }
  }
  return MotionSystem(dimension, std::move(points));
}

int MotionSystem::motion_degree() const {
  int k = 0;
  for (const Trajectory& p : points_) k = std::max(k, p.motion_degree());
  return k;
}

std::vector<std::vector<double>> MotionSystem::positions(double t) const {
  std::vector<std::vector<double>> out;
  out.reserve(points_.size());
  for (const Trajectory& p : points_) out.push_back(p.position(t));
  return out;
}

bool MotionSystem::initial_positions_distinct() const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    for (std::size_t j = i + 1; j < points_.size(); ++j) {
      double d = points_[i].distance_squared(points_[j])(0.0);
      if (d <= 1e-18) return false;
    }
  }
  return true;
}

MotionSystem random_motion_system(Rng& rng, std::size_t n, std::size_t dim,
                                  int k, double coeff) {
  DYNCG_ASSERT(k >= 0, "negative motion degree");
  std::vector<Trajectory> pts;
  pts.reserve(n);
  std::vector<double> starts;  // accepted initial positions, dim per point
  starts.reserve(n * dim);
  // Clash check in expected O(1) per candidate instead of a scan of every
  // previous start.  A clash (d2 < 1e-6) needs first coordinates within
  // 1e-3, and first coordinates lie in [-4 coeff, 4 coeff]: cut that range
  // into at most 4n + 16 buckets no narrower than 2e-3, and every possible
  // clash of a candidate lies in its own bucket or an adjacent one.  Same
  // predicate, same RNG draws as the quadratic scan.
  const double span = 8 * coeff;
  std::size_t buckets = 1;
  if (dim > 0 && std::isfinite(span) && span > 0) {
    buckets = static_cast<std::size_t>(std::clamp(
        std::floor(span / 2e-3), 1.0, 4.0 * static_cast<double>(n) + 16));
  }
  const double width = span / static_cast<double>(buckets);
  auto bucket_of = [&](double x) -> std::size_t {
    if (buckets == 1) return 0;
    double b = std::floor((x + 4 * coeff) / width);
    return static_cast<std::size_t>(
        std::clamp(b, 0.0, static_cast<double>(buckets - 1)));
  };
  // Accepted points chained per bucket, newest first.
  constexpr std::size_t kEnd = static_cast<std::size_t>(-1);
  std::vector<std::size_t> head(buckets, kEnd);
  std::vector<std::size_t> next;
  next.reserve(n);
  std::vector<double> start(dim);
  while (pts.size() < n) {
    std::vector<Polynomial> coords;
    coords.reserve(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      std::vector<double> c(static_cast<std::size_t>(k) + 1);
      for (double& x : c) x = rng.uniform(-coeff, coeff);
      // Spread the constant terms wider so initial positions separate.
      c[0] = rng.uniform(-4 * coeff, 4 * coeff);
      start[d] = c[0];
      coords.push_back(Polynomial(std::move(c)));
    }
    const std::size_t home = dim > 0 ? bucket_of(start[0]) : 0;
    const std::size_t last = std::min(home + 1, buckets - 1);
    bool clash = false;
    for (std::size_t b = home > 0 ? home - 1 : 0; b <= last && !clash; ++b) {
      for (std::size_t j = head[b]; j != kEnd && !clash; j = next[j]) {
        const double* s = &starts[j * dim];
        double d2 = 0;
        for (std::size_t i = 0; i < dim; ++i) d2 += (s[i] - start[i]) * (s[i] - start[i]);
        clash = d2 < 1e-6;
      }
    }
    if (clash) continue;
    next.push_back(head[home]);
    head[home] = pts.size();
    starts.insert(starts.end(), start.begin(), start.end());
    pts.push_back(Trajectory(std::move(coords)));
  }
  return MotionSystem(dim, std::move(pts));
}

MotionSystem diverging_motion_system(Rng& rng, std::size_t n, int k) {
  DYNCG_ASSERT(k >= 1, "diverging system needs k >= 1");
  std::vector<Trajectory> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Distinct outward directions with jittered speeds; lower-order terms
    // random so the transient is nontrivial.
    double angle = 2 * M_PI * (static_cast<double>(i) + rng.uniform(0.05, 0.4)) /
                   static_cast<double>(n);
    double speed = rng.uniform(1.0, 3.0);
    std::vector<double> cx(static_cast<std::size_t>(k) + 1);
    std::vector<double> cy(static_cast<std::size_t>(k) + 1);
    for (int d = 0; d <= k; ++d) {
      cx[static_cast<std::size_t>(d)] = rng.uniform(-1.0, 1.0);
      cy[static_cast<std::size_t>(d)] = rng.uniform(-1.0, 1.0);
    }
    cx[static_cast<std::size_t>(k)] = speed * std::cos(angle);
    cy[static_cast<std::size_t>(k)] = speed * std::sin(angle);
    pts.push_back(Trajectory({Polynomial(cx), Polynomial(cy)}));
  }
  return MotionSystem(2, std::move(pts));
}

}  // namespace dyncg
