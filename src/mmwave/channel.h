// Channel gain providers.
//
// The optimization layers only ever query three quantities:
//   direct_gain(l, k)        = H_l^k      (tx_l -> rx_l on channel k)
//   cross_gain(l', l, k)     = H_{l'l}^k  (tx_l' -> rx_l on channel k,
//                                          already including Delta(theta))
//   noise(l)                 = rho_l
// so a channel model is an immutable table of those values.  Two providers:
//
//  * TableIChannelModel — exactly the paper's simulation setup (Table I):
//    every H_l^k and every G_{l'l}^k, Delta(theta(l',l)) drawn i.i.d.
//    uniform [0,1].  All headline figures are reproduced with this model.
//
//  * GeometricChannelModel — a physically-motivated indoor 60 GHz model
//    (free-space path loss, flat-top directional antennas,
//    per-channel frequency-selective fading) used in ablations to show that
//    conclusions are not an artifact of the i.i.d. uniform assumption.
#pragma once

#include <vector>

#include "common/rng.h"
#include "mmwave/antenna.h"
#include "mmwave/geometry.h"
#include "mmwave/types.h"

namespace mmwave::net {

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;
  virtual int num_links() const = 0;
  virtual int num_channels() const = 0;
  /// H_l^k in [0, 1]-ish units (relative power gain).
  virtual double direct_gain(int link, int channel) const = 0;
  /// H_{l'l}^k: interference gain from `from_link`'s transmitter to
  /// `to_link`'s receiver.  Callers never ask for from_link == to_link.
  virtual double cross_gain(int from_link, int to_link, int channel) const = 0;
  /// Per-receiver noise power rho_l (watts).
  virtual double noise(int link) const = 0;
  /// The links (node incidence is needed for the half-duplex constraints).
  virtual const std::vector<Link>& links() const = 0;
};

/// Table I of the paper: i.i.d. uniform [0,1] gains, common noise floor.
/// Each link l connects its own dedicated node pair (2l, 2l+1), matching the
/// paper's "each link contains one transmitter and one receiver".
class TableIChannelModel : public ChannelModel {
 public:
  TableIChannelModel(int num_links, int num_channels, double noise_watts,
                     common::Rng& rng);

  int num_links() const override { return num_links_; }
  int num_channels() const override { return num_channels_; }
  double direct_gain(int link, int channel) const override;
  double cross_gain(int from_link, int to_link, int channel) const override;
  double noise(int) const override { return noise_watts_; }
  const std::vector<Link>& links() const override { return links_; }

 private:
  int num_links_;
  int num_channels_;
  double noise_watts_;
  std::vector<Link> links_;
  std::vector<double> direct_;  // [l * K + k]
  std::vector<double> cross_;   // [(from * L + to) * K + k]
};

struct GeometricChannelConfig {
  double room_size_m = 10.0;
  double min_link_len_m = 1.0;
  double max_link_len_m = 5.0;
  double carrier_hz = 60e9;
  /// Path-loss exponent (LoS indoor 60 GHz is ~2).
  double path_loss_exponent = 2.0;
  /// Transmit/receive beamwidth; the indoor case of the paper motivates a
  /// fairly wide beam (interference not negligible).
  double beamwidth_rad = 0.6;
  double sidelobe_gain = 0.05;
  /// Std-dev (dB) of the per-(link, channel) lognormal fading term that
  /// models frequency selectivity across the K channels.
  double channel_fading_db = 4.0;
};

class GeometricChannelModel : public ChannelModel {
 public:
  GeometricChannelModel(int num_links, int num_channels, double noise_watts,
                        const GeometricChannelConfig& config,
                        common::Rng& rng);

  int num_links() const override { return num_links_; }
  int num_channels() const override { return num_channels_; }
  double direct_gain(int link, int channel) const override;
  double cross_gain(int from_link, int to_link, int channel) const override;
  double noise(int) const override { return noise_watts_; }
  const std::vector<Link>& links() const override { return placement_.links; }

  const Placement& placement() const { return placement_; }

 private:
  double path_gain(double dist_m, int from_link, int to_link,
                   int channel) const;

  int num_links_;
  int num_channels_;
  double noise_watts_;
  GeometricChannelConfig config_;
  Placement placement_;
  FlatTopPattern pattern_;
  std::vector<double> fading_;  // [(from * L + to) * K + k], linear scale
  std::vector<double> direct_;
  std::vector<double> cross_;
};

}  // namespace mmwave::net
