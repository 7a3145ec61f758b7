#include "mmwave/antenna.h"

#include <cassert>
#include <cmath>

namespace mmwave::net {

FlatTopPattern::FlatTopPattern(double beamwidth_rad, double sidelobe)
    : half_beamwidth_(beamwidth_rad / 2.0), sidelobe_(sidelobe) {
  assert(beamwidth_rad > 0.0 && beamwidth_rad <= 2.0 * M_PI);
  assert(sidelobe >= 0.0 && sidelobe <= 1.0);
}

double FlatTopPattern::gain(double theta) const {
  return std::abs(theta) <= half_beamwidth_ ? 1.0 : sidelobe_;
}

}  // namespace mmwave::net
