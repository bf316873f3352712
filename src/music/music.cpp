#include "music/music.hpp"

#include <cmath>
#include <stdexcept>

namespace roarray::music {

using linalg::CVec;
using linalg::cxd;
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

/// 1 / ||E_n^H s||^2 with a floor to avoid dividing by zero at exact
/// signal directions (noise-free covariance corner case).
double music_power(const CMat& en, const CVec& s) {
  double acc = 0.0;
  for (index_t j = 0; j < en.cols(); ++j) {
    cxd proj{};
    for (index_t i = 0; i < en.rows(); ++i) proj += std::conj(en(i, j)) * s[i];
    acc += std::norm(proj);
  }
  return 1.0 / std::max(acc, 1e-12);
}

}  // namespace

dsp::Spectrum1d music_spectrum_aoa(const CMat& covariance, index_t k,
                                   const dsp::Grid& aoa_grid_deg,
                                   const dsp::ArrayConfig& cfg) {
  if (covariance.rows() != cfg.num_antennas) {
    throw std::invalid_argument("music_spectrum_aoa: covariance dim != antennas");
  }
  const CMat en = noise_subspace(covariance, k);
  dsp::Spectrum1d out;
  out.grid = aoa_grid_deg;
  out.values = RVec(aoa_grid_deg.size());
  for (index_t i = 0; i < aoa_grid_deg.size(); ++i) {
    const CVec s = dsp::steering_aoa(aoa_grid_deg[i], cfg);
    out.values[i] = music_power(en, s);
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
  if (eig.eigenvectors.rows() != sub_antennas * sub_carriers) {
    throw std::invalid_argument("music_spectrum_joint: covariance dim mismatch");
  }
  const CMat en = noise_subspace(eig, k);
  dsp::Spectrum2d out;
  out.aoa_grid = aoa_grid_deg;
  out.toa_grid = toa_grid_s;
  out.values = linalg::RMat(aoa_grid_deg.size(), toa_grid_s.size());
  for (index_t j = 0; j < toa_grid_s.size(); ++j) {
    for (index_t i = 0; i < aoa_grid_deg.size(); ++i) {
      const CVec s = dsp::steering_joint_sub(aoa_grid_deg[i], toa_grid_s[j],
                                             cfg, sub_antennas, sub_carriers);
      out.values(i, j) = music_power(en, s);
    }
  }
  out.normalize();
  return out;
}

}  // namespace roarray::music
