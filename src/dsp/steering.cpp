#include "dsp/steering.hpp"

#include <cmath>

#include "linalg/backend/backend.hpp"

namespace roarray::dsp {

using linalg::index_t;

cxd lambda_aoa(double theta_deg, double spacing_over_wavelength) {
  const double phase = -2.0 * kPi * spacing_over_wavelength *
                       std::cos(deg_to_rad(theta_deg));
  return std::polar(1.0, phase);
}

cxd gamma_toa(double tau_s, double subcarrier_spacing_hz) {
  const double phase = -2.0 * kPi * subcarrier_spacing_hz * tau_s;
  return std::polar(1.0, phase);
}

CVec steering_aoa(double theta_deg, const ArrayConfig& cfg) {
  const index_t m = cfg.num_antennas;
  const cxd lam = lambda_aoa(theta_deg, cfg.spacing_over_wavelength());
  CVec s(m);
  // s[i] = lam^i via the backend phase recurrence (scale 1 + 0i).
  linalg::backend::active().phase_ramp(cxd{1.0, 0.0}, lam, m, s.data());
  return s;
}

CVec steering_joint(double theta_deg, double tau_s, const ArrayConfig& cfg) {
  const index_t m = cfg.num_antennas;
  const index_t l = cfg.num_subcarriers;
  const cxd lam = lambda_aoa(theta_deg, cfg.spacing_over_wavelength());
  const cxd gam = gamma_toa(tau_s, cfg.subcarrier_spacing_hz);
  CVec s(m * l);
  const auto& bk = linalg::backend::active();
  cxd gl{1.0, 0.0};
  for (index_t sc = 0; sc < l; ++sc) {
    // s[sc*m + a] = gl * lam^a: one backend phase recurrence per
    // subcarrier block, scaled by the running ToA factor.
    bk.phase_ramp(gl, lam, m, s.data() + sc * m);
    gl *= gam;
  }
  return s;
}

CMat steering_matrix_aoa(const Grid& aoa_grid_deg, const ArrayConfig& cfg) {
  CMat a(cfg.num_antennas, aoa_grid_deg.size());
  for (index_t i = 0; i < aoa_grid_deg.size(); ++i) {
    a.set_col(i, steering_aoa(aoa_grid_deg[i], cfg));
  }
  return a;
}

CMat steering_matrix_toa(const Grid& toa_grid_s, const ArrayConfig& cfg) {
  const index_t l = cfg.num_subcarriers;
  CMat a(l, toa_grid_s.size());
  const auto& bk = linalg::backend::active();
  for (index_t j = 0; j < toa_grid_s.size(); ++j) {
    const cxd gam = gamma_toa(toa_grid_s[j], cfg.subcarrier_spacing_hz);
    bk.phase_ramp(cxd{1.0, 0.0}, gam, l, a.data() + j * l);
  }
  return a;
}

CMat steering_matrix_joint(const Grid& aoa_grid_deg, const Grid& toa_grid_s,
                           const ArrayConfig& cfg) {
  const index_t nth = aoa_grid_deg.size();
  const index_t ntau = toa_grid_s.size();
  CMat s(cfg.num_antennas * cfg.num_subcarriers, nth * ntau);
  for (index_t j = 0; j < ntau; ++j) {
    for (index_t i = 0; i < nth; ++i) {
      s.set_col(j * nth + i,
                steering_joint(aoa_grid_deg[i], toa_grid_s[j], cfg));
    }
  }
  return s;
}

}  // namespace roarray::dsp
