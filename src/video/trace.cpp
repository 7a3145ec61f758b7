#include "video/trace.h"

#include <cassert>
#include <cmath>

namespace mmwave::video {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::I: return "I";
    case FrameType::P: return "P";
    case FrameType::B: return "B";
  }
  return "?";
}

TypeMeans calibrate_type_means(const VideoConfig& config) {
  assert(!config.gop_pattern.empty() && config.gop_pattern[0] == 'I');
  int n_i = 0, n_p = 0, n_b = 0;
  for (char c : config.gop_pattern) {
    switch (c) {
      case 'I': ++n_i; break;
      case 'P': ++n_p; break;
      case 'B': ++n_b; break;
      default: assert(false && "GOP pattern may contain only I/P/B");
    }
  }
  const double gop_len = static_cast<double>(config.gop_pattern.size());
  const double mean_frame_bits = config.mean_bitrate_bps / config.fps;
  // With B-mean = s:  P = r_pb s,  I = r_ip r_pb s.
  const double r_pb = config.p_to_b_ratio;
  const double r_ip = config.i_to_p_ratio;
  const double weight = n_i * r_ip * r_pb + n_p * r_pb + n_b;
  const double s = gop_len * mean_frame_bits / weight;
  return {r_ip * r_pb * s, r_pb * s, s};
}

VideoTrace VideoTrace::generate(const VideoConfig& config, int num_frames,
                                common::Rng& rng) {
  VideoTrace trace;
  trace.config_ = config;
  const int gop_len = static_cast<int>(config.gop_pattern.size());
  assert(gop_len > 0);
  const int gops = (num_frames + gop_len - 1) / gop_len;
  const TypeMeans means = calibrate_type_means(config);
  // Each type's log-normal (mu, sigma), derived once per trace exactly as
  // Rng::lognormal_mean_cv derives them per draw, so every frame gets the
  // same bits as exp(normal(mu, sigma)) there.
  const double sigma2 = std::log(1.0 + config.size_cv * config.size_cv);
  const double sigma = std::sqrt(sigma2);
  const auto mu_of = [&](double mean) {
    return std::log(mean) - 0.5 * sigma2;
  };
  const double mu_i = mu_of(means.i_bits);
  const double mu_p = mu_of(means.p_bits);
  const double mu_b = mu_of(means.b_bits);

  trace.frames_.reserve(static_cast<std::size_t>(gops) * gop_len);
  for (int g = 0; g < gops; ++g) {
    for (char c : config.gop_pattern) {
      Frame f;
      double mean;
      double mu;
      switch (c) {
        case 'I':
          f.type = FrameType::I;
          mean = means.i_bits;
          mu = mu_i;
          break;
        case 'P':
          f.type = FrameType::P;
          mean = means.p_bits;
          mu = mu_p;
          break;
        default:
          f.type = FrameType::B;
          mean = means.b_bits;
          mu = mu_b;
          break;
      }
      f.bits = config.size_cv > 0.0 ? std::exp(rng.normal(mu, sigma))
                                    : mean;
      trace.frames_.push_back(f);
    }
  }
  return trace;
}

double VideoTrace::total_bits() const {
  double sum = 0.0;
  for (const Frame& f : frames_) sum += f.bits;
  return sum;
}

double VideoTrace::gop_bits(int g) const {
  const int len = gop_length();
  double sum = 0.0;
  for (int i = g * len; i < (g + 1) * len; ++i) sum += frames_[i].bits;
  return sum;
}

}  // namespace mmwave::video
