#pragma once

// Multi-luminaire scenes (ROADMAP "Multi-luminaire scenes"; the paper's
// §10 LED-array outlook and the spatial-multiplexing leverage of
// multilevel-OCC work in PAPERS.md): several independent LED
// transmitters share one camera view, each imaged onto its own
// rectangle of the sensor. A scene capture is the camera's one frame
// renderer with N region emitters instead of one
// (pipeline::CameraTraceRenderer), so it streams through the same
// pooled prefetch ring — and the same channel frame stages — as a
// single-LED capture.

#include <vector>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/channel.hpp"

namespace colorbars::scene {

/// One luminaire of the scene: where it images on the sensor and the
/// optical path its light crosses (per-luminaire distance/occlusion;
/// ambient and frame-domain impairments belong to the camera's own
/// background channel). What it transmits is supplied at run time.
struct LuminairePlacement {
  camera::SensorRegion region;
  channel::ChannelSpec channel{};
};

/// Static scene geometry.
struct SceneSpec {
  std::vector<LuminairePlacement> luminaires;

  /// Throws std::invalid_argument unless the scene is decodable on
  /// `profile`: at least one luminaire, every region inside the sensor,
  /// and pairwise column-disjoint regions — per-ROI decode separates
  /// luminaires by column interval, so a rolling-shutter receiver
  /// cannot split two emitters that share columns.
  void validate(const camera::SensorProfile& profile) const;
};

}  // namespace colorbars::scene
