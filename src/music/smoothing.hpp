// SpotFi-style 2-D spatial smoothing over antennas x subcarriers.
//
// A single packet gives one M x L CSI snapshot — far too few snapshots
// for a (M*L)-dimensional covariance. SpotFi slides a sub-array window
// of `ms` antennas x `ls` subcarriers over the CSI matrix; each window
// position contributes one (ms*ls)-dimensional snapshot whose steering
// vector is b(tau) (x) a(theta): entry l*ms + m holds A_tau(l, tau) *
// A_theta(m, theta), the leading ms rows of dsp::steering_matrix_aoa
// and ls rows of dsp::steering_matrix_toa.
#pragma once

#include <span>

#include "dsp/constants.hpp"
#include "linalg/matrix.hpp"

namespace roarray::music {

using linalg::CMat;
using linalg::index_t;

/// Smoothing window geometry. Defaults are SpotFi's choice for the
/// Intel 5300 (2 of 3 antennas, 15 of 30 subcarriers), giving
/// 30-dimensional snapshots and (3-2+1)*(30-15+1) = 32 snapshots/packet.
struct SmoothingConfig {
  index_t sub_antennas = 2;    ///< ms.
  index_t sub_carriers = 15;   ///< ls.
};

/// Builds the smoothed snapshot matrix for one packet:
/// (ms*ls) x ((M-ms+1)*(L-ls+1)), element ordering antenna-fastest to
/// match that steering vector. Throws std::invalid_argument if the window
/// does not fit.
[[nodiscard]] CMat smooth_csi(const CMat& csi, const SmoothingConfig& cfg);

/// Concatenates smoothed snapshots from several packets column-wise.
[[nodiscard]] CMat smooth_csi_packets(std::span<const CMat> packets,
                                      const SmoothingConfig& cfg);

}  // namespace roarray::music
