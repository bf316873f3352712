#include "music/smoothing.hpp"

#include <stdexcept>

namespace roarray::music {

CMat smooth_csi(const CMat& csi, const SmoothingConfig& cfg) {
  const index_t m = csi.rows();
  const index_t l = csi.cols();
  const index_t ms = cfg.sub_antennas;
  const index_t ls = cfg.sub_carriers;
  if (ms < 1 || ms > m || ls < 1 || ls > l) {
    throw std::invalid_argument("smooth_csi: window does not fit CSI matrix");
  }
  const index_t na = m - ms + 1;  // antenna window positions
  const index_t nc = l - ls + 1;  // subcarrier window positions
  CMat out(ms * ls, na * nc);
  for (index_t ca = 0; ca < na; ++ca) {
    for (index_t cc = 0; cc < nc; ++cc) {
      const index_t snap = ca * nc + cc;
      for (index_t wl = 0; wl < ls; ++wl) {
        for (index_t wm = 0; wm < ms; ++wm) {
          out(wl * ms + wm, snap) = csi(ca + wm, cc + wl);
        }
      }
    }
  }
  return out;
}

}  // namespace roarray::music
