// The MUSIC pseudo-spectrum (Schmidt 1986), 1-D (AoA) and joint 2-D
// (AoA, ToA) variants — the engine behind the ArrayTrack and SpotFi
// baselines the paper compares against.
#pragma once

#include "dsp/grid.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/steering.hpp"
#include "linalg/eig.hpp"
#include "linalg/matrix.hpp"

namespace roarray::music {

using linalg::CMat;
using linalg::index_t;

/// Extracts the noise subspace (eigenvectors of the d - k smallest
/// eigenvalues) from a d x d Hermitian covariance. Throws
/// std::invalid_argument unless 0 < k < d.
[[nodiscard]] CMat noise_subspace(const CMat& covariance, index_t k);

/// Same, from the covariance's eigendecomposition (eig_hermitian, so
/// eigenvalues ascending) when the caller already holds it.
[[nodiscard]] CMat noise_subspace(const linalg::EigResult& eig, index_t k);

/// 1-D spatial MUSIC: P(theta) = 1 / ||E_n^H s(theta)||^2 over the grid,
/// the squared row norms of one A_theta^H E_n product (A_theta =
/// dsp::steering_matrix_aoa). `covariance` is M x M, k the assumed
/// source count. The returned spectrum is normalized to peak 1.
[[nodiscard]] dsp::Spectrum1d music_spectrum_aoa(const CMat& covariance,
                                                 index_t k,
                                                 const dsp::Grid& aoa_grid_deg,
                                                 const dsp::ArrayConfig& cfg);

/// Joint 2-D MUSIC over (AoA, ToA) on smoothed (ms*ls)-dimensional
/// snapshots. The sub-array steering vector is b(tau) (x) a(theta) over
/// the leading ms rows of A_theta and ls rows of A_tau, so the joint
/// dictionary is never formed: each noise eigenvector, read as an
/// ms x ls matrix E_c, contributes |A_theta^H E_c conj(A_tau)|^2 to the
/// whole grid through two GEMMs. `covariance` must be (ms*ls) x (ms*ls);
/// throws std::invalid_argument unless 1 <= ms <= M and 1 <= ls <= L.
/// Normalized to peak 1.
[[nodiscard]] dsp::Spectrum2d music_spectrum_joint(
    const CMat& covariance, index_t k, const dsp::Grid& aoa_grid_deg,
    const dsp::Grid& toa_grid_s, const dsp::ArrayConfig& cfg,
    index_t sub_antennas, index_t sub_carriers);

/// Same, from the covariance's eigendecomposition, so a caller that also
/// needs the eigenvalues (SpotFi's MDL order pick) decomposes once.
[[nodiscard]] dsp::Spectrum2d music_spectrum_joint(
    const linalg::EigResult& eig, index_t k, const dsp::Grid& aoa_grid_deg,
    const dsp::Grid& toa_grid_s, const dsp::ArrayConfig& cfg,
    index_t sub_antennas, index_t sub_carriers);

}  // namespace roarray::music
