#include "colorbars/pd/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "colorbars/runtime/seed.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::pd {

namespace {

/// AGC metering: the per-channel response to the steady scene over the
/// leading window — static distance attenuation plus the flicker-free
/// ambient base, like the camera AE (transient occlusion and flicker
/// deliberately excluded; an AGC converges on the steady scene).
double meter_gain(const PdConfig& config, const channel::OpticalChannel& channel,
                  const led::EmissionTrace& trace, double start_offset_s) {
  const util::Vec3 incident =
      trace.average(start_offset_s, start_offset_s + config.agc_window_s) *
          channel.attenuation_gain() +
      channel.constant_ambient_xyz();
  double peak = 0.0;
  for (const PdChannelSpec& pd_channel : config.channels) {
    const double response =
        pd_channel.responsivity * std::max(pd_channel.filter_xyz.dot(incident), 0.0);
    peak = std::max(peak, response);
  }
  if (!(peak > 1e-12)) return 1.0;  // dark scene: nothing to normalize against
  return config.agc_target / peak;
}

}  // namespace

PdSampler::PdSampler(const PdConfig& config, channel::OpticalChannel channel,
                     const led::EmissionTrace& trace, double start_offset_s,
                     std::uint64_t noise_seed)
    : config_(config),
      channel_(std::move(channel)),
      trace_(trace),
      start_offset_s_(start_offset_s),
      noise_seed_(noise_seed) {
  gain_ = meter_gain(config_, channel_, trace_, start_offset_s_);
  const double span_s = trace_.duration() - start_offset_s_;
  total_samples_ = span_s > 0.0
                       ? static_cast<long long>(std::ceil(span_s * config_.sample_rate_hz))
                       : 0;
  total_blocks_ = static_cast<int>(
      (total_samples_ + config_.block_samples - 1) / config_.block_samples);
}

void PdSampler::render_block(int block_index, SampleBlock& out) const {
  const long long first =
      static_cast<long long>(block_index) * static_cast<long long>(config_.block_samples);
  const int count = static_cast<int>(
      std::min<long long>(config_.block_samples, total_samples_ - first));
  const int channels = channel_count();
  const double period = 1.0 / config_.sample_rate_hz;
  out.first_sample = first;
  out.count = count;
  out.channels = channels;
  out.sample_period_s = period;
  out.start_time_s = start_offset_s_ + static_cast<double>(first) * period;
  out.samples.resize(static_cast<std::size_t>(count) * static_cast<std::size_t>(channels));

  util::Xoshiro256 rng(runtime::derive_stream_seed(noise_seed_, static_cast<std::uint64_t>(
                                                                    block_index)));
  // ADC levels: 0 bits = ideal converter, otherwise 2^bits - 1 steps
  // over the [0, 1] full scale.
  const double levels =
      config_.adc_bits > 0 ? std::ldexp(1.0, config_.adc_bits) - 1.0 : 0.0;
  for (int i = 0; i < count; ++i) {
    const double t0 = out.start_time_s + static_cast<double>(i) * period;
    const double t1 = t0 + period;
    // Every radiance-domain channel stage acts here: distance and
    // occlusion through signal_gain, ambient (with flicker) added on
    // top — the same integrand the camera's per-row exposure evaluates,
    // minus the frame raster.
    // led_average routes the emission through the channel's delay-spread
    // taps (identity when ISI is disabled), as the camera's does.
    const util::Vec3 incident = channel_.led_average(trace_, t0, t1) *
                                    channel_.signal_gain(t0, t1) +
                                channel_.ambient_xyz(t0, t1);
    double* sample = out.samples.data() + static_cast<std::size_t>(i) * channels;
    for (int c = 0; c < channels; ++c) {
      const PdChannelSpec& pd_channel = config_.channels[static_cast<std::size_t>(c)];
      // Physical photocurrent cannot be negative; matrixed filters with
      // negative coefficients clamp, like the camera's sensor response.
      double value = gain_ * pd_channel.responsivity *
                     std::max(pd_channel.filter_xyz.dot(incident), 0.0);
      const double sigma = config_.read_noise + config_.shot_noise * std::sqrt(value);
      if (sigma > 0.0) value += rng.normal() * sigma;
      value = std::clamp(value, 0.0, 1.0);
      if (levels > 0.0) value = std::round(value * levels) / levels;
      sample[c] = value;
    }
  }
}

PdSampleSource::PdSampleSource(const PdSampler& sampler) : sampler_(sampler) {
  ring_.resize(static_cast<std::size_t>(sampler_.config().lookahead_blocks));
}

void PdSampleSource::refill() {
  ring_base_ = next_serve_;
  ring_count_ = std::min(static_cast<int>(ring_.size()),
                         sampler_.total_blocks() - ring_base_);
  // Blocks are pure functions of their index, so the fan-out is
  // byte-identical at any thread count (and to a serial loop).
  runtime::parallel_for(0, ring_count_, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      sampler_.render_block(ring_base_ + static_cast<int>(i),
                            ring_[static_cast<std::size_t>(i)]);
    }
  });
  ++refills_;
}

const SampleBlock* PdSampleSource::next() {
  if (next_serve_ >= sampler_.total_blocks()) return nullptr;
  if (next_serve_ >= ring_base_ + ring_count_) refill();
  const SampleBlock* block = &ring_[static_cast<std::size_t>(next_serve_ - ring_base_)];
  ++next_serve_;
  return block;
}

}  // namespace colorbars::pd
