#include "mmwave/channel.h"

#include <cassert>
#include <cmath>

namespace mmwave::net {

TableIChannelModel::TableIChannelModel(int num_links, int num_channels,
                                       double noise_watts, common::Rng& rng)
    : num_links_(num_links),
      num_channels_(num_channels),
      noise_watts_(noise_watts) {
  assert(num_links > 0 && num_channels > 0);
  links_.reserve(num_links);
  for (int l = 0; l < num_links; ++l) links_.push_back({l, 2 * l, 2 * l + 1});

  direct_.resize(static_cast<std::size_t>(num_links) * num_channels);
  for (double& g : direct_) g = rng.uniform();

  // Cross gain = G_{l'l}^k * Delta(theta(l', l)); per Table I both factors
  // are uniform [0,1].  Delta depends only on the link pair (geometry), G on
  // the pair and the channel.
  std::vector<double> delta(static_cast<std::size_t>(num_links) * num_links);
  for (double& d : delta) d = rng.uniform();
  cross_.resize(static_cast<std::size_t>(num_links) * num_links *
                num_channels);
  for (int from = 0; from < num_links; ++from) {
    for (int to = 0; to < num_links; ++to) {
      if (from == to) continue;
      const double d = delta[static_cast<std::size_t>(from) * num_links + to];
      for (int k = 0; k < num_channels; ++k) {
        cross_[(static_cast<std::size_t>(from) * num_links + to) *
                   num_channels +
               k] = rng.uniform() * d;
      }
    }
  }
}

double TableIChannelModel::direct_gain(int link, int channel) const {
  return direct_[static_cast<std::size_t>(link) * num_channels_ + channel];
}

double TableIChannelModel::cross_gain(int from_link, int to_link,
                                      int channel) const {
  assert(from_link != to_link);
  return cross_[(static_cast<std::size_t>(from_link) * num_links_ + to_link) *
                    num_channels_ +
                channel];
}

GeometricChannelModel::GeometricChannelModel(
    int num_links, int num_channels, double noise_watts,
    const GeometricChannelConfig& config, common::Rng& rng)
    : num_links_(num_links),
      num_channels_(num_channels),
      noise_watts_(noise_watts),
      config_(config),
      placement_(random_placement(num_links, config.room_size_m,
                                  config.min_link_len_m,
                                  config.max_link_len_m, rng)),
      pattern_(config.beamwidth_rad, config.sidelobe_gain) {
  // Per-(ordered pair, channel) lognormal fading for frequency selectivity.
  // Index [from * L + to] with from == to used for the direct path.
  fading_.resize(static_cast<std::size_t>(num_links) * num_links *
                 num_channels);
  const double sigma_ln = config.channel_fading_db * std::log(10.0) / 10.0;
  for (double& f : fading_) {
    f = std::exp(rng.normal(0.0, sigma_ln) - 0.5 * sigma_ln * sigma_ln);
  }

  // Precompute gains.  Gains are normalized to the 1 m free-space gain so
  // they land in (0, 1] like the Table I model, keeping SINR scales
  // comparable across models.
  direct_.resize(static_cast<std::size_t>(num_links) * num_channels);
  cross_.assign(
      static_cast<std::size_t>(num_links) * num_links * num_channels, 0.0);

  for (int l = 0; l < num_links; ++l) {
    const Link& link = placement_.links[l];
    const double d =
        distance(placement_.node_pos[link.tx_node],
                 placement_.node_pos[link.rx_node]);
    for (int k = 0; k < num_channels; ++k) {
      // Both ends beamform on boresight: antenna gain 1 in both directions.
      direct_[static_cast<std::size_t>(l) * num_channels + k] =
          path_gain(d, l, l, k);
    }
  }
  for (int from = 0; from < num_links; ++from) {
    const Link& lf = placement_.links[from];
    const Point2D& tx = placement_.node_pos[lf.tx_node];
    const double tx_boresight =
        bearing(tx, placement_.node_pos[lf.rx_node]);
    for (int to = 0; to < num_links; ++to) {
      if (from == to) continue;
      const Link& lt = placement_.links[to];
      const Point2D& rx = placement_.node_pos[lt.rx_node];
      const double rx_boresight =
          bearing(rx, placement_.node_pos[lt.tx_node]);
      // Offsets of the interference ray from each end's boresight.
      const double theta_tx = angle_offset(tx_boresight, bearing(tx, rx));
      const double theta_rx = angle_offset(rx_boresight, bearing(rx, tx));
      const double ant = pattern_.gain(theta_tx) * pattern_.gain(theta_rx);
      const double d = std::max(distance(tx, rx), 0.1);
      for (int k = 0; k < num_channels; ++k) {
        cross_[(static_cast<std::size_t>(from) * num_links + to) *
                   num_channels +
               k] = ant * path_gain(d, from, to, k);
      }
    }
  }
}

double GeometricChannelModel::path_gain(double dist_m, int from_link,
                                        int to_link, int channel) const {
  // Free-space reference at 1 m, distance^(-n) decay, per-channel fading.
  const double d = std::max(dist_m, 1.0);
  const double decay = std::pow(d, -config_.path_loss_exponent);
  const double fade =
      fading_[(static_cast<std::size_t>(from_link) * num_links_ + to_link) *
                  num_channels_ +
              channel];
  return std::min(1.0, decay * fade);
}

double GeometricChannelModel::direct_gain(int link, int channel) const {
  return direct_[static_cast<std::size_t>(link) * num_channels_ + channel];
}

double GeometricChannelModel::cross_gain(int from_link, int to_link,
                                         int channel) const {
  assert(from_link != to_link);
  return cross_[(static_cast<std::size_t>(from_link) * num_links_ + to_link) *
                    num_channels_ +
                channel];
}

}  // namespace mmwave::net
