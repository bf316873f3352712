// Steering vectors and matrices (paper Eq. 1, 2, 6, 12, 13, 16).
#pragma once

#include "dsp/constants.hpp"
#include "dsp/grid.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace roarray::dsp {

using linalg::CMat;
using linalg::CVec;
using linalg::cxd;

/// Per-antenna phase ratio Lambda(theta) = exp(-j 2 pi (d/lambda) cos theta)
/// (paper Eq. 1). theta in degrees.
[[nodiscard]] cxd lambda_aoa(double theta_deg, double spacing_over_wavelength);

/// Per-subcarrier phase ratio Gamma(tau) = exp(-j 2 pi f_delta tau)
/// (paper Eq. 12). tau in seconds.
[[nodiscard]] cxd gamma_toa(double tau_s, double subcarrier_spacing_hz);

/// Spatial steering vector s(theta) = [1, Lambda, ..., Lambda^(M-1)]^T
/// (paper Eq. 1).
[[nodiscard]] CVec steering_aoa(double theta_deg, const ArrayConfig& cfg);

/// Joint AoA/ToA steering vector over all antennas and subcarriers
/// (paper Eq. 13). Element ordering is antenna-fastest, i.e. index
/// l * M + m holds Lambda^m * Gamma^l, matching the CSI stacking of
/// Eq. 15: [csi_{1,1}, csi_{2,1}, csi_{3,1}, csi_{1,2}, ...].
[[nodiscard]] CVec steering_joint(double theta_deg, double tau_s,
                                  const ArrayConfig& cfg);

/// Spatial steering factor A_theta (M x N_theta): column i is
/// steering_aoa(grid[i]). This is the "S-tilde" of paper Eq. 6.
[[nodiscard]] CMat steering_matrix_aoa(const Grid& aoa_grid_deg,
                                       const ArrayConfig& cfg);

/// Frequency steering factor A_tau (L x N_tau): column j is
/// [1, Gamma(tau_j), ..., Gamma(tau_j)^(L-1)]^T.
[[nodiscard]] CMat steering_matrix_toa(const Grid& toa_grid_s,
                                       const ArrayConfig& cfg);

/// Dense joint steering matrix of paper Eq. 16, size (M*L) x (Nth*Ntau),
/// column (j * Nth + i) = steering_joint(aoa[i], toa[j]). Equal to the
/// Kronecker product A_tau (x) A_theta. Intended for tests and small
/// problems; solvers should use the structured operator instead.
[[nodiscard]] CMat steering_matrix_joint(const Grid& aoa_grid_deg,
                                         const Grid& toa_grid_s,
                                         const ArrayConfig& cfg);

}  // namespace roarray::dsp
