#pragma once

// End-to-end multi-luminaire simulation: N transmitters -> one
// rolling-shutter camera -> ROI-tracked per-luminaire decode. Extends
// core::LinkSimulator's goodput experiment to a scene: every luminaire
// streams its own packet sequence through its own optical channel, the
// compositor renders them into shared frames, and the SceneReceiver
// decodes each tracked region independently. The headline metric is
// aggregate goodput across luminaires — the spatial-multiplexing gain
// the paper's LED-array outlook (§10) points at.

#include <cstdint>
#include <vector>

#include "colorbars/core/link.hpp"
#include "colorbars/scene/receiver.hpp"
#include "colorbars/scene/scene.hpp"

namespace colorbars::scene {

/// Full scene-experiment configuration. `link` supplies everything a
/// single luminaire needs (modulation order, symbol rate, sensor
/// profile, coding) — the scene's luminaires share one link rung, as an
/// LED array driven by one controller would. `link.channel` is the
/// camera's background path (ambient, frame-domain impairments);
/// per-luminaire optics live in each placement.
struct SceneConfig {
  core::LinkConfig link{};
  SceneSpec scene{};
};

/// One luminaire's end-to-end outcome, after lane→luminaire attribution
/// (a decode lane credits the placement its tracked columns overlap
/// most).
struct LuminaireOutcome {
  int luminaire = -1;        ///< index into SceneSpec::luminaires
  int lane_id = -1;          ///< matched decode lane (-1: never tracked)
  camera::SensorRegion region;  ///< the lane's final tracked rectangle
  long long packets = 0;
  long long packets_ok = 0;
  std::size_t sent_bytes = 0;       ///< payload handed to this transmitter
  std::size_t recovered_bytes = 0;  ///< ground-truth-verified bytes back out
};

/// Aggregate result of one scene goodput run.
struct SceneRunResult {
  std::vector<LuminaireOutcome> luminaires;
  int lanes_opened = 0;  ///< decode lanes the tracker ever opened
  int frames = 0;        ///< frames streamed through the pipeline
  double air_time_s = 0.0;
  std::size_t sent_bytes = 0;
  std::size_t recovered_bytes = 0;

  /// Aggregate application goodput across every luminaire, bits/s.
  [[nodiscard]] double goodput_bps() const noexcept {
    return air_time_s > 0.0 ? 8.0 * static_cast<double>(recovered_bytes) / air_time_s
                            : 0.0;
  }
};

/// Orchestrates one multi-luminaire capture. Mirrors core::LinkSimulator:
/// construction validates the scene, run_goodput is repeatable-stream
/// deterministic (each call advances the member RNG exactly like a new
/// field measurement), and results are byte-identical at every thread
/// count.
class SceneSimulator {
 public:
  explicit SceneSimulator(SceneConfig config);

  [[nodiscard]] const SceneConfig& config() const noexcept { return config_; }

  /// Streams `duration_s` seconds of back-to-back data packets from
  /// every luminaire at once and reports per-luminaire recovery plus
  /// aggregate goodput.
  [[nodiscard]] SceneRunResult run_goodput(double duration_s);

 private:
  SceneConfig config_;
  util::Xoshiro256 rng_;
};

}  // namespace colorbars::scene
