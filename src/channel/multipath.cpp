#include "channel/multipath.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace roarray::channel {

namespace {

/// Mirrors a point across one of the four room walls.
/// wall: 0 = x=0, 1 = x=W, 2 = y=0, 3 = y=H.
Vec2 mirror(const Vec2& p, int wall, const Room& room) {
  switch (wall) {
    case 0: return {-p.x, p.y};
    case 1: return {2.0 * room.width_m - p.x, p.y};
    case 2: return {p.x, -p.y};
    case 3: return {p.x, 2.0 * room.height_m - p.y};
    default: throw std::invalid_argument("mirror: bad wall index");
  }
}

/// Builds the path arriving at `ap` from the (possibly mirrored) image
/// of the client, with `bounces` wall reflections.
Path make_path(const ApPose& ap, const Vec2& image, int bounces,
               const MultipathConfig& cfg, const dsp::ArrayConfig& array_cfg) {
  Path p;
  p.reflections = bounces;
  p.length_m = distance(ap.position, image);
  // Guard against a degenerate zero-length path (client on top of AP).
  p.length_m = std::max(p.length_m, 1e-3);
  p.toa_s = p.length_m / dsp::kSpeedOfLight;
  p.aoa_deg = ap.aoa_of_direction(image - ap.position);
  const double amp = 1.0 / p.length_m * std::pow(cfg.reflection_loss, bounces);
  const double phase = -2.0 * dsp::kPi * p.length_m / array_cfg.wavelength_m;
  p.gain = std::polar(amp, phase);
  return p;
}

}  // namespace

std::vector<Path> trace_paths(const Room& room, const ApPose& ap,
                              const Vec2& client, const MultipathConfig& cfg,
                              const dsp::ArrayConfig& array_cfg,
                              std::span<const Vec2> scatterers) {
  room.validate();
  cfg.validate();
  array_cfg.validate();
  if (!room.contains(ap.position) || !room.contains(client)) {
    throw std::invalid_argument("trace_paths: endpoints must be inside the room");
  }

  std::vector<Path> paths;
  paths.push_back(make_path(ap, client, 0, cfg, array_cfg));
  const double direct_toa = paths.front().toa_s;

  for (const Vec2& sc : scatterers) {
    if (!room.contains(sc)) {
      throw std::invalid_argument("trace_paths: scatterer outside the room");
    }
    // A scatterer sitting on an endpoint forms no distinct bounce path:
    // at the AP its arrival direction is undefined (zero-length leg),
    // and at the client it coincides with the direct path. Skip it.
    if (distance(sc, ap.position) < 1e-9 || distance(client, sc) < 1e-9) {
      continue;
    }
    const double d1 = std::max(distance(client, sc), 1e-3);
    const double d2 = std::max(distance(sc, ap.position), 1e-3);
    Path p;
    p.reflections = 1;
    p.length_m = d1 + d2;
    p.toa_s = p.length_m / dsp::kSpeedOfLight;
    p.aoa_deg = ap.aoa_of_direction(sc - ap.position);
    const double amp = cfg.scatter_coeff / (d1 * d2);
    const double phase = -2.0 * dsp::kPi * p.length_m / array_cfg.wavelength_m;
    p.gain = std::polar(amp, phase);
    paths.push_back(p);
  }

  if (cfg.max_reflections >= 1) {
    for (int wall = 0; wall < 4; ++wall) {
      paths.push_back(make_path(ap, mirror(client, wall, room), 1, cfg, array_cfg));
    }
  }
  if (cfg.max_reflections >= 2) {
    // Second-order images: reflect across wall a then wall b. Mirroring
    // twice across the same wall is the identity, and opposite-wall
    // pairs in both orders give distinct images, so enumerate ordered
    // pairs with a != b.
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        if (a == b) continue;
        const Vec2 image = mirror(mirror(client, a, room), b, room);
        paths.push_back(make_path(ap, image, 2, cfg, array_cfg));
      }
    }
  }

  // Drop negligible paths (keeps the dominant-path count sparse). The
  // direct path is exempt: it always physically exists (no occlusion in
  // this model) and anchors the ground truth every downstream consumer
  // reads from paths.front(), even when a nearby scatterer out-amps it.
  double max_amp = 0.0;
  for (const Path& p : paths) max_amp = std::max(max_amp, std::abs(p.gain));
  const double floor_amp = cfg.min_rel_amplitude * max_amp;
  std::erase_if(paths, [&](const Path& p) {
    return p.reflections > 0 && std::abs(p.gain) < floor_amp;
  });

  // The triangle inequality puts every indirect path at or beyond the
  // direct ToA, but rounded leg sums can undershoot it by a few ulp
  // (e.g. a scatterer collinear with the client-AP segment). Clamp so
  // the contract "paths.front() is the direct path" survives FP.
  for (Path& p : paths) {
    if (p.reflections > 0) p.toa_s = std::max(p.toa_s, direct_toa);
  }

  // Deduplicate second-order images that coincide (e.g. corner cases):
  // two paths with nearly identical AoA and ToA merge coherently.
  // Ties sort direct-first so an exactly-collinear bounce cannot
  // displace (or absorb) the direct path.
  std::sort(paths.begin(), paths.end(), [](const Path& x, const Path& y) {
    if (x.toa_s != y.toa_s) return x.toa_s < y.toa_s;
    return x.reflections < y.reflections;
  });
  std::vector<Path> merged;
  for (const Path& p : paths) {
    if (!merged.empty() &&
        std::abs(merged.back().toa_s - p.toa_s) < 1e-12 &&
        dsp::angle_diff_deg(merged.back().aoa_deg, p.aoa_deg) < 1e-6) {
      merged.back().gain += p.gain;
    } else {
      merged.push_back(p);
    }
  }
  return merged;
}

}  // namespace roarray::channel
