// Angle utilities (degrees-first, matching the paper's conventions).
#pragma once

#include <cmath>

#include "dsp/constants.hpp"
#include "dsp/grid.hpp"

namespace roarray::dsp {

/// Wraps an angle to [0, 360) degrees. Inside (-360, 360) fmod is exact
/// and returns its argument, so the call is skipped there; the result is
/// bit-identical either way.
[[nodiscard]] inline double wrap_deg_360(double deg) noexcept {
  double w = std::abs(deg) < 360.0 ? deg : std::fmod(deg, 360.0);
  if (w < 0.0) w += 360.0;
  return w;
}

/// Wraps an angle to (-180, 180] degrees.
[[nodiscard]] inline double wrap_deg_180(double deg) noexcept {
  double w = wrap_deg_360(deg);
  if (w > 180.0) w -= 360.0;
  return w;
}

/// Absolute angular difference in degrees, in [0, 180].
[[nodiscard]] inline double angle_diff_deg(double a, double b) noexcept {
  return std::abs(wrap_deg_180(a - b));
}

/// Folds an arbitrary bearing into the ULA's unambiguous AoA range
/// [0, 180]: a linear array cannot distinguish a source at +x from one
/// mirrored across the array axis.
[[nodiscard]] inline double fold_to_ula_range(double deg) noexcept {
  double w = wrap_deg_360(deg);
  if (w > 180.0) w = 360.0 - w;
  return w;
}

/// Separation between two folded AoAs, accounting for the endfire
/// ambiguity: at half-wavelength element spacing a(0 deg) == a(180 deg)
/// exactly (the per-element phases coincide mod 2pi), so 2 deg and
/// 178 deg are physically 4 deg apart, not 176. Inputs are folded to
/// [0, 180] first; the result is in [0, 90].
[[nodiscard]] inline double folded_aoa_separation_deg(double a,
                                                      double b) noexcept {
  const double d = std::abs(fold_to_ula_range(a) - fold_to_ula_range(b));
  return std::min(d, 180.0 - d);
}

/// Circular index period of an AoA sampling grid, or 0 when the grid is
/// not circular. A grid spanning the full [0, 180] fold range at exact
/// half-wavelength spacing has identical steering vectors at its two
/// endpoints, making the index space circular with period size() - 1
/// (the endpoints are the same atom). Off half-wavelength spacing, or
/// on a partial grid, the endpoints are distinct and 0 is returned.
[[nodiscard]] inline index_t aoa_wrap_period(const Grid& grid,
                                             const ArrayConfig& array) noexcept {
  constexpr double kEps = 1e-9;
  if (grid.size() < 3) return 0;
  if (std::abs(grid.lo()) > kEps || std::abs(grid.hi() - 180.0) > kEps) return 0;
  if (std::abs(array.spacing_over_wavelength() - 0.5) > kEps) return 0;
  return grid.size() - 1;
}

}  // namespace roarray::dsp
