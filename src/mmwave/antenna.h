// Directional antenna gain pattern Delta(theta) (Section III, eq. (4)).
//
// The paper models the interference from link l1's transmitter to link l2's
// receiver as G * Delta(theta(l1, l2)) where Delta is the normalized
// directional gain at offset angle theta from boresight.  The geometric
// channel model uses the flat-top ("keyhole") pattern: full gain inside the
// half-power beamwidth, constant sidelobe level outside — the model used by
// most mmWave MAC papers, including the paper's references [5], [6].
#pragma once

namespace mmwave::net {

/// Constant mainlobe gain of 1 within +-beamwidth/2, `sidelobe` outside.
class FlatTopPattern {
 public:
  FlatTopPattern(double beamwidth_rad, double sidelobe);
  /// Normalized gain in [0, 1] at offset angle `theta` radians from
  /// boresight; theta is folded into [0, pi] by the caller.
  double gain(double theta) const;

 private:
  double half_beamwidth_;
  double sidelobe_;
};

}  // namespace mmwave::net
