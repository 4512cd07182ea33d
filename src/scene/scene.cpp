#include "colorbars/scene/scene.hpp"

#include <stdexcept>

namespace colorbars::scene {

void SceneSpec::validate(const camera::SensorProfile& profile) const {
  if (luminaires.empty()) {
    throw std::invalid_argument("SceneSpec: at least one luminaire required");
  }
  for (const LuminairePlacement& placement : luminaires) {
    if (!placement.region.within(profile.rows, profile.columns)) {
      throw std::invalid_argument("SceneSpec: luminaire region outside the sensor");
    }
    placement.channel.validate();
  }
  for (std::size_t i = 0; i < luminaires.size(); ++i) {
    for (std::size_t j = i + 1; j < luminaires.size(); ++j) {
      if (luminaires[i].region.column_overlap(luminaires[j].region) > 0) {
        throw std::invalid_argument(
            "SceneSpec: luminaire regions must be column-disjoint (per-ROI decode "
            "separates luminaires by column interval)");
      }
    }
  }
}

}  // namespace colorbars::scene
