#pragma once

// The scene-level frame sink: an rx::RoiTracker localizes luminaires in
// each streamed frame, and every live track's column slice feeds its
// own rx::StreamingReceiver — one independent decode lane per
// luminaire, fanned out per frame over the runtime thread pool. Lane
// creation and aggregation are in track-ID order, so results are
// byte-identical at every thread count.

#include <memory>
#include <vector>

#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/rx/roi_tracker.hpp"
#include "colorbars/rx/streaming.hpp"

namespace colorbars::scene {

/// One tracked luminaire's decode lane. The receiver accumulates its
/// per-ROI PacketRecord stream (rx::ReceiverReport).
struct RoiDecodeLane {
  int roi_id = -1;
  camera::SensorRegion region;  ///< latest tracked rectangle
  std::unique_ptr<rx::StreamingReceiver> receiver;
};

class SceneReceiver final : public pipeline::FrameSink {
 public:
  /// `config` is the decode configuration every lane shares (the
  /// scene's luminaires transmit with the same modulation/coding).
  explicit SceneReceiver(rx::ReceiverConfig config);

  /// Tracks the frame, opens lanes for newly seen luminaires, and feeds
  /// every live lane its column slice (in parallel — lanes are
  /// independent).
  void consume(const camera::Frame& frame) override;
  /// Flushes every lane with end-of-stream semantics.
  void on_stream_end() override;

  /// All lanes ever opened, in track-ID order (lanes whose track
  /// retired keep their decoded packets).
  [[nodiscard]] const std::vector<RoiDecodeLane>& lanes() const noexcept { return lanes_; }
  [[nodiscard]] const rx::ReceiverConfig& config() const noexcept { return config_; }
  [[nodiscard]] int frames_consumed() const noexcept { return frames_consumed_; }

 private:
  rx::ReceiverConfig config_;
  rx::RoiTracker tracker_;  ///< default detection tuning
  std::vector<RoiDecodeLane> lanes_;
  int frames_consumed_ = 0;
};

}  // namespace colorbars::scene
