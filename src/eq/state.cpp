#include "colorbars/eq/state.hpp"

#include <stdexcept>

namespace colorbars::eq {

const char* engine_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kNearestReference: return "nearest";
    case EngineKind::kLinearMmse: return "mmse";
  }
  return "?";
}

void EngineConfig::validate() const {
  if (channel_taps < 1 || channel_taps > 16) {
    throw std::invalid_argument("EngineConfig: channel_taps must be in [1, 16]");
  }
  if (equalizer_taps < 1 || equalizer_taps > 32) {
    throw std::invalid_argument("EngineConfig: equalizer_taps must be in [1, 32]");
  }
  if (!(mmse_lambda >= 0.0) || !(mmse_lambda < 1e6)) {
    throw std::invalid_argument("EngineConfig: mmse_lambda must be in [0, 1e6)");
  }
  if (!(max_tap_norm > 0.0)) {
    throw std::invalid_argument("EngineConfig: max_tap_norm must be positive");
  }
  if (!(reference_prior >= 0.0)) {
    throw std::invalid_argument("EngineConfig: reference_prior must be non-negative");
  }
  if (train_iterations < 1 || train_iterations > 64) {
    throw std::invalid_argument("EngineConfig: train_iterations must be in [1, 64]");
  }
}

}  // namespace colorbars::eq
