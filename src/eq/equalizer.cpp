// Linear equalized decision engine (the CSK64 extension). One channel
// model and one estimator:
//
//   y[k] = sum_d c[d] * t[s[k-d]]
//
// where y[k] is the observed chroma of calibration slot k, s[k] the
// (known) transmitted constellation index, t[] the clean per-symbol
// reference chromas and c[] a short causal scalar impulse response —
// the rolling-shutter exposure window smearing trailing symbols into
// the current band acts on both chroma components alike, so scalar taps
// over 2-vectors suffice. Calibration packets give (s, y) pairs; c and
// t are fit by alternating regularized least squares: holding t fixed,
// c solves an L x L system; holding c fixed, t solves a K x K system
// whose Tikhonov prior pulls toward the store's raw references (one
// calibration packet shows each symbol once, so without the prior the
// t-step is rank deficient by construction).
//
// The equalizer w then inverts c in the time domain: the regularized
// least-squares FIR inverse of the convolution matrix (ZF as lambda ->
// 0, MMSE otherwise). Every estimation passes an ill-conditioning guard
// — singular pivots, non-finite values, exploding tap norm — and a
// rejected fit keeps the previous taps and counts a train_fallback
// instead of ever storing NaNs.

#include <cmath>
#include <cstddef>
#include <vector>

#include "colorbars/simd/simd.hpp"
#include "engines_internal.hpp"

namespace colorbars::eq::detail {

namespace {

using color::ChromaAB;
using rx::SlotObservation;

constexpr double kPivotFloor = 1e-12;

struct Estimate {
  std::vector<double> channel;
  std::vector<double> equalizer;
  std::vector<ChromaAB> references;
};

bool all_finite(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool all_finite(std::span<const ChromaAB> values) {
  for (const ChromaAB& v : values) {
    if (!std::isfinite(v.a) || !std::isfinite(v.b)) return false;
  }
  return true;
}

class EqualizedEngine final : public DecisionEngine {
 public:
  explicit EqualizedEngine(const EngineConfig& config) : config_(config) {}

  [[nodiscard]] EngineKind kind() const noexcept override { return config_.kind; }

  void on_calibration(rx::CalibrationStore& store,
                      std::span<const CalibrationObservation> sequence) override {
    EqualizerState& state = store.equalizer();
    const int symbol_count = store.symbol_count();
    if (symbol_count <= 0) return;
    // Train only against a complete reference set: with symbols still
    // unlearned, the t-step prior would anchor them at the origin and
    // the deconvolved constellation would grow phantom near-zero
    // references that attract every dim observation.
    if (!store.calibrated()) return;

    // Prior targets for the deconvolved references: the store's raw
    // (ISI-smeared) references, falling back to the previous fit.
    std::vector<ChromaAB> raw(static_cast<std::size_t>(symbol_count), ChromaAB{0.0, 0.0});
    for (int i = 0; i < symbol_count; ++i) {
      if (const auto reference = store.reference(i); reference.has_value()) {
        raw[static_cast<std::size_t>(i)] = *reference;
      } else if (state.valid &&
                 static_cast<std::size_t>(i) < state.references.size()) {
        raw[static_cast<std::size_t>(i)] = state.references[static_cast<std::size_t>(i)];
      }
    }

    const int taps = config_.channel_taps;
    // Usable equations start once the channel memory is filled with
    // known symbols and need the slot's chroma to have been observed.
    int usable = 0;
    for (std::size_t k = static_cast<std::size_t>(taps) - 1; k < sequence.size(); ++k) {
      if (sequence[k].chroma.has_value()) ++usable;
    }
    // A packet too truncated to constrain the taps is data starvation,
    // not ill conditioning: skip without touching the state or counters.
    if (usable < taps + 1) return;

    Estimate estimate;
    estimate.channel.assign(static_cast<std::size_t>(taps), 0.0);
    estimate.channel[0] = 1.0;
    estimate.references = raw;
    bool ok = true;
    for (int iteration = 0; ok && iteration < config_.train_iterations; ++iteration) {
      ok = fit_channel(sequence, estimate.references, estimate.channel) &&
           fit_references(sequence, estimate.channel, raw, estimate.references);
    }
    ok = ok && all_finite(estimate.channel) && all_finite(estimate.references);
    ok = ok && design_time_domain(estimate.channel, estimate.equalizer);
    if (ok) {
      double norm_sq = 0.0;
      for (const double w : estimate.equalizer) norm_sq += w * w;
      ok = std::isfinite(norm_sq) && std::sqrt(norm_sq) <= config_.max_tap_norm;
    }
    if (!ok) {
      // Guard trip: keep the previous (finite) taps and make the miss
      // observable instead of propagating NaNs into decisions.
      ++state.train_fallbacks;
      return;
    }

    if (state.valid && state.channel_taps.size() == estimate.channel.size() &&
        state.equalizer_taps.size() == estimate.equalizer.size() &&
        state.references.size() == estimate.references.size()) {
      // Blend 50/50 with the previous fit, mirroring how the store
      // absorbs repeated calibration references.
      for (std::size_t i = 0; i < estimate.channel.size(); ++i) {
        estimate.channel[i] = 0.5 * (estimate.channel[i] + state.channel_taps[i]);
      }
      for (std::size_t i = 0; i < estimate.equalizer.size(); ++i) {
        estimate.equalizer[i] = 0.5 * (estimate.equalizer[i] + state.equalizer_taps[i]);
      }
      for (std::size_t i = 0; i < estimate.references.size(); ++i) {
        estimate.references[i].a =
            0.5 * (estimate.references[i].a + state.references[i].a);
        estimate.references[i].b =
            0.5 * (estimate.references[i].b + state.references[i].b);
      }
    }
    state.channel_taps = std::move(estimate.channel);
    state.equalizer_taps = std::move(estimate.equalizer);
    state.references = std::move(estimate.references);
    state.valid = true;
    ++state.retrains;
  }

  [[nodiscard]] int decide(const rx::CalibrationStore& store,
                           std::span<const std::optional<SlotObservation>> window,
                           std::size_t position, double* margin_out) const override {
    const EqualizerState& state = store.equalizer();
    const std::size_t taps = state.equalizer_taps.size();
    bool context_ok = state.valid && taps > 0 && !state.references.empty();
    if (context_ok) {
      for (std::size_t j = 0; j < taps; ++j) {
        if (j > position || !window[position - j].has_value()) {
          context_ok = false;
          break;
        }
      }
    }
    if (!context_ok) {
      // Missing taps or an incomplete FIR window (capture start, slots
      // lost to the inter-frame gap): degrade to the plain scan.
      note_decision(/*fallback=*/true);
      return classify_nearest_store(store, *window[position], margin_out);
    }
    ChromaAB equalized{0.0, 0.0};
    for (std::size_t j = 0; j < taps; ++j) {
      const double w = state.equalizer_taps[j];
      const ChromaAB& chroma = window[position - j]->chroma;
      equalized.a += w * chroma.a;
      equalized.b += w * chroma.b;
    }
    note_decision(/*fallback=*/false);
    return classify_against_refs(state.references, equalized, margin_out);
  }

 private:
  /// c-step: least-squares channel taps for fixed references, both
  /// chroma components stacked as rows, ridge toward the identity
  /// channel scaled to the normal matrix's magnitude.
  bool fit_channel(std::span<const CalibrationObservation> sequence,
                   std::span<const ChromaAB> references,
                   std::vector<double>& channel) const {
    const int taps = config_.channel_taps;
    std::vector<double> normal(static_cast<std::size_t>(taps) * taps, 0.0);
    std::vector<double> rhs(static_cast<std::size_t>(taps), 0.0);
    std::vector<double> row_a(static_cast<std::size_t>(taps));
    std::vector<double> row_b(static_cast<std::size_t>(taps));
    for (std::size_t k = static_cast<std::size_t>(taps) - 1; k < sequence.size(); ++k) {
      if (!sequence[k].chroma.has_value()) continue;
      for (int d = 0; d < taps; ++d) {
        const int symbol = sequence[k - static_cast<std::size_t>(d)].symbol;
        const ChromaAB& t = references[static_cast<std::size_t>(symbol)];
        row_a[static_cast<std::size_t>(d)] = t.a;
        row_b[static_cast<std::size_t>(d)] = t.b;
      }
      for (int i = 0; i < taps; ++i) {
        for (int j = 0; j < taps; ++j) {
          normal[static_cast<std::size_t>(i) * taps + static_cast<std::size_t>(j)] +=
              row_a[static_cast<std::size_t>(i)] * row_a[static_cast<std::size_t>(j)] +
              row_b[static_cast<std::size_t>(i)] * row_b[static_cast<std::size_t>(j)];
        }
        rhs[static_cast<std::size_t>(i)] +=
            row_a[static_cast<std::size_t>(i)] * sequence[k].chroma->a +
            row_b[static_cast<std::size_t>(i)] * sequence[k].chroma->b;
      }
    }
    double trace = 0.0;
    for (int i = 0; i < taps; ++i) trace += normal[static_cast<std::size_t>(i) * taps + i];
    const double ridge = config_.mmse_lambda * (trace / taps + 1.0);
    for (int i = 0; i < taps; ++i) {
      normal[static_cast<std::size_t>(i) * taps + i] += ridge;
      rhs[static_cast<std::size_t>(i)] += ridge * (i == 0 ? 1.0 : 0.0);
    }
    if (!solve_dense(normal, rhs, taps, 1, kPivotFloor)) return false;
    channel = std::move(rhs);
    return true;
  }

  /// t-step: least-squares references for fixed channel taps. The two
  /// components share one normal matrix (the symbol pattern is common);
  /// the reference_prior Tikhonov term anchors the directions a single
  /// calibration packet cannot observe.
  bool fit_references(std::span<const CalibrationObservation> sequence,
                      std::span<const double> channel, std::span<const ChromaAB> prior,
                      std::vector<ChromaAB>& references) const {
    const int taps = config_.channel_taps;
    const int count = static_cast<int>(references.size());
    std::vector<double> normal(static_cast<std::size_t>(count) * count, 0.0);
    std::vector<double> rhs(static_cast<std::size_t>(count) * 2, 0.0);
    std::vector<double> coefficients(static_cast<std::size_t>(count));
    std::vector<int> touched;
    touched.reserve(static_cast<std::size_t>(taps));
    for (std::size_t k = static_cast<std::size_t>(taps) - 1; k < sequence.size(); ++k) {
      if (!sequence[k].chroma.has_value()) continue;
      touched.clear();
      for (int d = 0; d < taps; ++d) {
        const int symbol = sequence[k - static_cast<std::size_t>(d)].symbol;
        if (coefficients[static_cast<std::size_t>(symbol)] == 0.0) {
          touched.push_back(symbol);
        }
        coefficients[static_cast<std::size_t>(symbol)] +=
            channel[static_cast<std::size_t>(d)];
      }
      for (const int p : touched) {
        const double cp = coefficients[static_cast<std::size_t>(p)];
        for (const int q : touched) {
          normal[static_cast<std::size_t>(p) * count + static_cast<std::size_t>(q)] +=
              cp * coefficients[static_cast<std::size_t>(q)];
        }
        rhs[static_cast<std::size_t>(p) * 2] += cp * sequence[k].chroma->a;
        rhs[static_cast<std::size_t>(p) * 2 + 1] += cp * sequence[k].chroma->b;
      }
      for (const int p : touched) coefficients[static_cast<std::size_t>(p)] = 0.0;
    }
    for (int p = 0; p < count; ++p) {
      normal[static_cast<std::size_t>(p) * count + static_cast<std::size_t>(p)] +=
          config_.reference_prior;
      rhs[static_cast<std::size_t>(p) * 2] +=
          config_.reference_prior * prior[static_cast<std::size_t>(p)].a;
      rhs[static_cast<std::size_t>(p) * 2 + 1] +=
          config_.reference_prior * prior[static_cast<std::size_t>(p)].b;
    }
    if (!solve_dense(normal, rhs, count, 2, kPivotFloor)) return false;
    for (int p = 0; p < count; ++p) {
      references[static_cast<std::size_t>(p)] = {rhs[static_cast<std::size_t>(p) * 2],
                                                 rhs[static_cast<std::size_t>(p) * 2 + 1]};
    }
    return true;
  }

  /// Regularized least-squares FIR inverse: w minimizes
  /// |conv(c, w) - delta|^2 + lambda |w|^2 over the full convolution
  /// support. Pure zero forcing as lambda -> 0.
  bool design_time_domain(std::span<const double> channel,
                          std::vector<double>& equalizer) const {
    const int taps = config_.equalizer_taps;
    const int channel_taps = static_cast<int>(channel.size());
    std::vector<double> normal(static_cast<std::size_t>(taps) * taps, 0.0);
    std::vector<double> rhs(static_cast<std::size_t>(taps), 0.0);
    const int rows = channel_taps + taps - 1;
    for (int row = 0; row < rows; ++row) {
      for (int i = 0; i < taps; ++i) {
        const int ci = row - i;
        if (ci < 0 || ci >= channel_taps) continue;
        const double c_i = channel[static_cast<std::size_t>(ci)];
        for (int j = 0; j < taps; ++j) {
          const int cj = row - j;
          if (cj < 0 || cj >= channel_taps) continue;
          normal[static_cast<std::size_t>(i) * taps + static_cast<std::size_t>(j)] +=
              c_i * channel[static_cast<std::size_t>(cj)];
        }
        if (row == 0) rhs[static_cast<std::size_t>(i)] += c_i;
      }
    }
    double trace = 0.0;
    for (int i = 0; i < taps; ++i) trace += normal[static_cast<std::size_t>(i) * taps + i];
    const double ridge = config_.mmse_lambda * (trace / taps + 1e-9);
    for (int i = 0; i < taps; ++i) {
      normal[static_cast<std::size_t>(i) * taps + i] += ridge;
    }
    if (!solve_dense(normal, rhs, taps, 1, kPivotFloor)) return false;
    equalizer = std::move(rhs);
    return all_finite(equalizer);
  }

  EngineConfig config_;
};

}  // namespace

std::unique_ptr<DecisionEngine> make_equalized_engine(const EngineConfig& config) {
  return std::make_unique<EqualizedEngine>(config);
}

}  // namespace colorbars::eq::detail
