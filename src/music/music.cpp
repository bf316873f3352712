#include "music/music.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "linalg/gemm.hpp"

namespace roarray::music {

using linalg::RVec;

CMat noise_subspace(const CMat& covariance, index_t k) {
  const index_t d = covariance.rows();
  if (k < 1 || k >= d) {
    throw std::invalid_argument("noise_subspace: need 0 < k < dim");
  }
  return noise_subspace(linalg::eig_hermitian(covariance), k);
}

CMat noise_subspace(const linalg::EigResult& eg, index_t k) {
  const index_t d = eg.eigenvectors.rows();
  if (k < 1 || k >= d) {
    throw std::invalid_argument("noise_subspace: need 0 < k < dim");
  }
  // Eigenvalues ascending: the first d - k eigenvectors span the noise space.
  CMat en(d, d - k);
  for (index_t j = 0; j < d - k; ++j) {
    for (index_t i = 0; i < d; ++i) en(i, j) = eg.eigenvectors(i, j);
  }
  return en;
}

namespace {

/// Floor on ||E_n^H s||^2 before the reciprocal, so an exact signal
/// direction (noise-free covariance corner case) does not divide by zero.
constexpr double kProjectionFloor = 1e-12;

/// The leading `rows` rows of `a` as a contiguous matrix (the GEMM
/// entry points take no leading dimension).
CMat leading_rows(const CMat& a, index_t rows) {
  CMat out(rows, a.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < rows; ++i) out(i, j) = a(i, j);
  }
  return out;
}

}  // namespace

dsp::Spectrum1d music_spectrum_aoa(const CMat& covariance, index_t k,
                                   const dsp::Grid& aoa_grid_deg,
                                   const dsp::ArrayConfig& cfg) {
  if (covariance.rows() != cfg.num_antennas) {
    throw std::invalid_argument("music_spectrum_aoa: covariance dim != antennas");
  }
  const CMat en = noise_subspace(covariance, k);
  // Row i of A_theta^H E_n holds the projections of steering_aoa(grid[i]).
  const CMat proj = linalg::matmul_blocked(
      linalg::adjoint(dsp::steering_matrix_aoa(aoa_grid_deg, cfg)), en);
  dsp::Spectrum1d out;
  out.grid = aoa_grid_deg;
  out.values = RVec(aoa_grid_deg.size());
  for (index_t i = 0; i < proj.rows(); ++i) {
    double energy = 0.0;
    for (index_t c = 0; c < proj.cols(); ++c) energy += std::norm(proj(i, c));
    out.values[i] = 1.0 / std::max(energy, kProjectionFloor);
  }
  out.normalize();
  return out;
}

dsp::Spectrum2d music_spectrum_joint(const CMat& covariance, index_t k,
                                     const dsp::Grid& aoa_grid_deg,
                                     const dsp::Grid& toa_grid_s,
                                     const dsp::ArrayConfig& cfg,
                                     index_t sub_antennas,
                                     index_t sub_carriers) {
  if (covariance.rows() != sub_antennas * sub_carriers) {
    throw std::invalid_argument("music_spectrum_joint: covariance dim mismatch");
  }
  return music_spectrum_joint(linalg::eig_hermitian(covariance), k,
                              aoa_grid_deg, toa_grid_s, cfg, sub_antennas,
                              sub_carriers);
}

dsp::Spectrum2d music_spectrum_joint(const linalg::EigResult& eig, index_t k,
                                     const dsp::Grid& aoa_grid_deg,
                                     const dsp::Grid& toa_grid_s,
                                     const dsp::ArrayConfig& cfg,
                                     index_t sub_antennas,
                                     index_t sub_carriers) {
  const index_t ms = sub_antennas;
  const index_t ls = sub_carriers;
  if (ms < 1 || ms > cfg.num_antennas || ls < 1 || ls > cfg.num_subcarriers) {
    throw std::invalid_argument("music_spectrum_joint: sub-array out of range");
  }
  if (eig.eigenvectors.rows() != ms * ls) {
    throw std::invalid_argument("music_spectrum_joint: covariance dim mismatch");
  }
  const CMat en = noise_subspace(eig, k);
  const index_t nth = aoa_grid_deg.size();
  const index_t ntau = toa_grid_s.size();

  // The sub-array steering vector is s[l*ms + m] = A_tau(l, j) A_theta(m, i):
  // b(tau) (x) a(theta) over the leading ms rows of A_theta and ls rows
  // of A_tau (the smooth_csi layout). With noise column c read as the
  // ms x ls matrix E_c, E_c^H s = conj([A_theta^H E_c conj(A_tau)](i, j)),
  // so each column takes two GEMMs over the whole grid: the ToA side
  // (ms * ls * ntau MACs), then the AoA side (nth * ms * ntau). A_theta^H
  // is formed once so the AoA side runs on the shallow-depth kernel.
  const CMat a_theta_h = linalg::adjoint(
      leading_rows(dsp::steering_matrix_aoa(aoa_grid_deg, cfg), ms));
  const CMat a_tau_conj = linalg::conjugate(
      leading_rows(dsp::steering_matrix_toa(toa_grid_s, cfg), ls));
  CMat toa_side(ms, ntau);
  CMat proj(nth, ntau);
  linalg::RMat energy(nth, ntau);
  double* e = energy.data();
  const linalg::cxd* p = proj.data();
  for (index_t c = 0; c < en.cols(); ++c) {
    // E_c is column c of en read as ms x ls column-major: entry (m, l)
    // sits at row l*ms + m.
    linalg::gemm(ms, ntau, ls, en.data() + c * en.rows(), a_tau_conj.data(),
                 toa_side.data());
    linalg::gemm(nth, ntau, ms, a_theta_h.data(), toa_side.data(),
                 proj.data());
    for (index_t t = 0; t < nth * ntau; ++t) e[t] += std::norm(p[t]);
  }

  for (index_t t = 0; t < nth * ntau; ++t) {
    e[t] = 1.0 / std::max(e[t], kProjectionFloor);
  }
  dsp::Spectrum2d out;
  out.aoa_grid = aoa_grid_deg;
  out.toa_grid = toa_grid_s;
  out.values = std::move(energy);
  out.normalize();
  return out;
}

}  // namespace roarray::music
