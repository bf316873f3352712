// Image-method multipath ray tracing for a rectangular room.
#pragma once

#include <span>
#include <vector>

#include "channel/geometry.hpp"
#include "dsp/constants.hpp"
#include "linalg/types.hpp"

namespace roarray::channel {

using linalg::cxd;
using linalg::index_t;

/// One propagation path from client to AP.
struct Path {
  double aoa_deg = 0.0;   ///< angle of arrival at the AP array, [0, 180].
  double toa_s = 0.0;     ///< absolute propagation time (length / c).
  cxd gain{};             ///< complex attenuation a_k (amplitude + phase).
  int reflections = 0;    ///< 0 = direct (LoS), 1 = single bounce, ...
  double length_m = 0.0;  ///< geometric path length.
};

/// Multipath generation parameters.
struct MultipathConfig {
  int max_reflections = 1;        ///< 1 => direct + 4 wall bounces.
  double reflection_loss = 0.45;  ///< amplitude kept per wall bounce.
  /// Paths weaker than this fraction of the strongest path are dropped,
  /// keeping the dominant-path count sparse as the paper assumes.
  double min_rel_amplitude = 0.02;
  /// Effective scattering amplitude of point scatterers (furniture,
  /// people): a scatterer at distances (d1, d2) from client and AP
  /// contributes amplitude scatter_coeff / (d1 * d2).
  double scatter_coeff = 0.5;

  void validate() const {
    if (max_reflections < 0 || max_reflections > 2) {
      throw std::invalid_argument("MultipathConfig: max_reflections must be 0..2");
    }
    if (reflection_loss < 0.0 || reflection_loss > 1.0) {
      throw std::invalid_argument("MultipathConfig: reflection_loss must be in [0,1]");
    }
  }
};

/// Traces the direct path and up-to-second-order wall reflections from
/// `client` to the array at `ap` inside `room` using the image method.
///
/// Path amplitude follows free-space spreading 1 / length (unit
/// amplitude at 1 m) times reflection_loss per bounce; path phase is
/// the carrier phase -2*pi*length/lambda. Optional point scatterers add single-bounce
/// diffuse paths (client -> scatterer -> AP). Paths are returned sorted
/// by ascending ToA, so paths.front() is always the direct path. Both
/// endpoints must lie inside the room.
[[nodiscard]] std::vector<Path> trace_paths(
    const Room& room, const ApPose& ap, const Vec2& client,
    const MultipathConfig& cfg, const dsp::ArrayConfig& array_cfg,
    std::span<const Vec2> scatterers = {});

}  // namespace roarray::channel
