#include "stl/evaluator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace unicc {

namespace {

// Adds grid interval j's convolution term to every point i = j + k,
// k = 1..n, of the level being computed: `out` is that level offset by j,
// `above` the level above it. Every point receives its terms in
// increasing j, exactly as a per-point loop would add them, but the n
// running sums are independent, so the compiler can vectorize the loop
// without reassociating any sum.
void AddIntervalTerm(double* __restrict out, const double* __restrict above,
                     int n, double lx0, double lx1, double w, double ej,
                     double c) {
  for (int k = 1; k <= n; ++k) {
    const double g0 = lx0 + above[k];
    const double g1 = lx1 + above[k - 1];
    out[k] += g0 * w + (g1 - g0) * ej * c;
  }
}

}  // namespace

StlEvaluator::StlEvaluator(SystemParams params, int grid_points)
    : params_(params), grid_points_(grid_points) {
  UNICC_CHECK(params_.lambda_a > 0);
  UNICC_CHECK(params_.lambda_r >= 0 && params_.lambda_w >= 0);
  UNICC_CHECK(params_.q_r >= 0 && params_.q_r <= 1);
  UNICC_CHECK(params_.k_avg >= 1);
  UNICC_CHECK(grid_points_ >= 2);
}

double StlEvaluator::LambdaNew() const {
  return params_.lambda_w + (1 - params_.q_r) * params_.lambda_r;
}

double StlEvaluator::LambdaBlock(double lambda_loss) const {
  const double la = params_.lambda_a;
  if (lambda_loss >= la) return 0;
  const double p_block = std::clamp(lambda_loss / la, 0.0, 1.0);
  return (la - lambda_loss) *
         (1 - std::pow(1 - p_block, params_.k_avg - 1));
}

double StlEvaluator::Evaluate(double lambda_loss, double u_seconds) const {
  UNICC_CHECK(u_seconds >= 0);
  if (u_seconds == 0) return 0;
  const double la = params_.lambda_a;
  if (lambda_loss >= la) return la * u_seconds;

  const double lnew = LambdaNew();
  // Number of loss levels until saturation; each new blocking grant adds
  // lnew of loss. With lnew == 0 no escalation happens: the loss stays
  // deterministic. The cap applies before the cast, because a tiny lnew
  // needs more levels than an int holds (std::min's argument order also
  // maps a NaN to the cap).
  int levels = 0;
  if (lnew > 1e-12) {
    levels = static_cast<int>(
        std::min(4096.0, std::ceil((la - lambda_loss) / lnew)));
  }
  if (levels == 0) return lambda_loss * u_seconds;

  const int m = grid_points_;
  const double h = u_seconds / (m - 1);
  // The level being computed and the level above it; they swap after
  // each level instead of being copied.
  std::vector<double> above(m), cur(m);

  // S_top: saturated level.
  for (int i = 0; i < m; ++i) {
    above[i] = la * (static_cast<double>(i) * h);
  }
  // Sweep levels from (levels-1) down to 0; level n has loss l_n. The
  // convolution against the exponential first-block density is integrated
  // exactly per grid interval with the integrand g(x) = l*x + S_next(u-x)
  // interpolated linearly; this keeps the bound STL' <= lambda_a*U for any
  // lambda_block*h (a plain trapezoid rule does not).
  for (int n = levels - 1; n >= 0; --n) {
    const double l = std::min(lambda_loss + n * lnew, la);
    const double b = LambdaBlock(l);
    const double ebh = std::exp(-b * h);
    // c = \int_0^h b*y*e^{-by} dy / h, normalized slope weight.
    const double c =
        b > 1e-12 ? (1 - ebh * (1 + b * h)) / (b * h) : 0.0;
    // No-block branch.
    cur[0] = 0;
    for (int i = 1; i < m; ++i) {
      const double u = static_cast<double>(i) * h;
      cur[i] = std::exp(-b * u) * l * u;
    }
    if (b > 1e-12) {
      double ej = 1.0;  // e^{-b x_j}, as a running product
      for (int j = 0; j < m - 1; ++j) {
        const double x0 = static_cast<double>(j) * h;
        AddIntervalTerm(cur.data() + j, above.data(), m - 1 - j, l * x0,
                        l * (x0 + h), ej - ej * ebh, ej, c);
        ej *= ebh;
      }
    }
    std::swap(above, cur);
  }
  return above[m - 1];
}

}  // namespace unicc
