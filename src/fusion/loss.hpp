// The Huber loss of the IRLS fusion solver: the rho / weight pair on a
// fixed scale, so every evaluation is a pure function of its inputs — no
// data-driven scale estimate sneaks run-to-run variation into the solve.
// Quadratic inside |r| <= delta and linear outside it, so an outlier
// keeps a bounded pull on the solution.
#pragma once

namespace roarray::fusion {

/// IRLS weight psi(r)/r for a non-negative residual magnitude `r`.
/// Exactly 1.0 inside the quadratic band: a solve whose residuals all
/// stay inside it is plain weighted least squares, bit for bit.
[[nodiscard]] constexpr double huber_weight(double r, double delta) noexcept {
  return r <= delta ? 1.0 : delta / r;
}

/// The loss value rho(r) itself (used to rank hypotheses, not to drive
/// the IRLS update). Matches huber_weight: rho'(r)/r == weight.
[[nodiscard]] constexpr double huber_rho(double r, double delta) noexcept {
  return r <= delta ? 0.5 * r * r : delta * (r - 0.5 * delta);
}

}  // namespace roarray::fusion
