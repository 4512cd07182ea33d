#include "colorbars/rx/band_extractor.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "colorbars/camera/camera.hpp"
#include "colorbars/csk/constellation.hpp"
#include "colorbars/led/tri_led.hpp"
#include "colorbars/protocol/symbols.hpp"

namespace colorbars::rx {
namespace {

using protocol::ChannelSymbol;

/// Renders a symbol sequence and captures one frame starting at t=0.
camera::Frame capture_symbols(const std::vector<ChannelSymbol>& symbols,
                              double symbol_rate_hz,
                              const camera::SensorProfile& profile) {
  const csk::Constellation constellation(csk::CskOrder::kCsk8);
  const led::TriLed led;
  const led::EmissionTrace trace =
      led.emit(protocol::drives_of(symbols, constellation), symbol_rate_hz);
  camera::RollingShutterCamera camera(profile, {}, 4321);
  return camera.capture_frame(trace, 0.0);
}

TEST(ReduceToScanlines, ProducesOneColorPerRow) {
  const std::vector<ChannelSymbol> symbols(100, ChannelSymbol::white());
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto scanlines = reduce_to_scanlines(frame);
  EXPECT_EQ(scanlines.size(), static_cast<std::size_t>(frame.rows));
}

TEST(ReduceToScanlines, WhiteRowsAreBrightAndNeutral) {
  const std::vector<ChannelSymbol> symbols(100, ChannelSymbol::white());
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto scanlines = reduce_to_scanlines(frame);
  const auto& middle = scanlines[scanlines.size() / 2];
  EXPECT_GT(middle.lightness, 40.0);
  EXPECT_LT(std::abs(middle.chroma.a), 12.0);
  EXPECT_LT(std::abs(middle.chroma.b), 12.0);
}

TEST(SegmentBands, UniformFrameIsOneBand) {
  const std::vector<ChannelSymbol> symbols(100, ChannelSymbol::white());
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto bands = segment_bands(frame, reduce_to_scanlines(frame), {});
  ASSERT_EQ(bands.size(), 1u);
  // The very first rows integrate darkness from before the trace start,
  // so they may split off and be dropped as a sub-minimum band.
  EXPECT_LE(bands[0].start_row, 2);
  EXPECT_GE(bands[0].row_count, frame.rows - 3);
}

TEST(SegmentBands, AlternatingSymbolsSplitIntoBands) {
  std::vector<ChannelSymbol> symbols;
  for (int i = 0; i < 200; ++i) {
    symbols.push_back(i % 2 == 0 ? ChannelSymbol::data(0)   // red vertex
                                 : ChannelSymbol::data(1)); // green vertex
  }
  const camera::Frame frame = capture_symbols(symbols, 1000, camera::ideal_profile());
  const auto bands = segment_bands(frame, reduce_to_scanlines(frame), {});
  // Readout ~25 ms at 1 kHz -> ~25 bands.
  EXPECT_GT(bands.size(), 15u);
  EXPECT_LT(bands.size(), 35u);
  // Alternation: consecutive bands have very different chroma.
  for (std::size_t i = 1; i < bands.size(); ++i) {
    EXPECT_GT(color::delta_e_ab(bands[i].chroma, bands[i - 1].chroma), 20.0);
  }
}

TEST(SegmentBands, BandWidthTracksSymbolRate) {
  // Fig. 3c: bands at 3000 sym/s are a third the width of 1000 sym/s.
  auto mean_width = [](const std::vector<Band>& bands) {
    double total = 0.0;
    int count = 0;
    for (std::size_t i = 1; i + 1 < bands.size(); ++i) {  // skip edge bands
      total += bands[i].row_count;
      ++count;
    }
    return total / count;
  };
  std::vector<ChannelSymbol> symbols;
  for (int i = 0; i < 600; ++i) {
    symbols.push_back(i % 2 == 0 ? ChannelSymbol::data(0) : ChannelSymbol::data(1));
  }
  const camera::Frame slow = capture_symbols(symbols, 1000, camera::ideal_profile());
  const camera::Frame fast = capture_symbols(symbols, 3000, camera::ideal_profile());
  const double slow_width = mean_width(segment_bands(slow, reduce_to_scanlines(slow), {}));
  const double fast_width = mean_width(segment_bands(fast, reduce_to_scanlines(fast), {}));
  // Exposure-blur eats a fixed number of transition rows per band, which
  // inflates the ratio slightly above the ideal 3.0.
  EXPECT_NEAR(slow_width / fast_width, 3.0, 0.9);
}

TEST(SegmentBands, MinBandRowsFiltersSpurs) {
  std::vector<ChannelSymbol> symbols;
  for (int i = 0; i < 400; ++i) {
    symbols.push_back(i % 2 == 0 ? ChannelSymbol::data(0) : ChannelSymbol::data(2));
  }
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  ExtractorConfig strict;
  strict.min_band_rows = 10;
  const auto bands = segment_bands(frame, reduce_to_scanlines(frame), strict);
  for (const Band& band : bands) {
    EXPECT_GE(band.row_count, 10);
  }
}

TEST(BandsToSlots, MapsBandTimesToSlotIndices) {
  // Hand-built bands: symbol duration 1 ms.
  std::vector<Band> bands;
  Band band;
  band.start_time_s = 0.0102;  // covers slots 10..14 at 1 kHz
  band.end_time_s = 0.0149;
  band.chroma = {10, 20};
  band.lightness = 50;
  bands.push_back(band);
  const auto slots = bands_to_slots(bands, 1000.0);
  ASSERT_EQ(slots.size(), 5u);
  EXPECT_EQ(slots.front().slot, 10);
  EXPECT_EQ(slots.back().slot, 14);
  for (const auto& slot : slots) {
    EXPECT_DOUBLE_EQ(slot.chroma.a, 10);
    EXPECT_DOUBLE_EQ(slot.lightness, 50);
  }
}

TEST(BandsToSlots, SubSlotBandContributesNothing) {
  std::vector<Band> bands;
  Band band;
  band.start_time_s = 0.0101;
  band.end_time_s = 0.0103;  // 0.2 of a slot
  bands.push_back(band);
  EXPECT_TRUE(bands_to_slots(bands, 1000.0).empty());
}

TEST(ExtractSlots, RecoversDistinctSymbolRuns) {
  // o w o pattern at 2 kHz: extract_slots should yield exactly those
  // three slots with dark-bright-dark lightness.
  std::vector<ChannelSymbol> symbols(60, ChannelSymbol::white());
  symbols[20] = ChannelSymbol::off();
  symbols[22] = ChannelSymbol::off();
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto slots = extract_slots(frame, 2000);
  // Find slots 20..22.
  double l20 = -1, l21 = -1, l22 = -1;
  for (const auto& slot : slots) {
    if (slot.slot == 20) l20 = slot.lightness;
    if (slot.slot == 21) l21 = slot.lightness;
    if (slot.slot == 22) l22 = slot.lightness;
  }
  ASSERT_GE(l20, 0.0);
  ASSERT_GE(l21, 0.0);
  ASSERT_GE(l22, 0.0);
  EXPECT_LT(l20, 20.0);
  EXPECT_GT(l21, 35.0);
  EXPECT_LT(l22, 20.0);
}

TEST(ReduceToScanlines, EmptyFrameYieldsNoScanlines) {
  const camera::Frame frame;  // zero rows, zero columns
  EXPECT_TRUE(reduce_to_scanlines(frame).empty());
  EXPECT_TRUE(reduce_to_scanlines(frame, 0, 10).empty());
}

TEST(ReduceToScanlines, ZeroColumnFrameYieldsNoScanlines) {
  camera::Frame frame;
  frame.rows = 8;  // resize() rejects zero dimensions; build the shape by hand
  frame.columns = 0;
  EXPECT_TRUE(reduce_to_scanlines(frame).empty());
}

TEST(ReduceToScanlines, EmptyRoiYieldsNoScanlines) {
  const std::vector<ChannelSymbol> symbols(50, ChannelSymbol::white());
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  EXPECT_TRUE(reduce_to_scanlines(frame, 5, 5).empty());
  EXPECT_TRUE(reduce_to_scanlines(frame, 12, 7).empty());
  // A range entirely outside the frame clamps to empty.
  EXPECT_TRUE(reduce_to_scanlines(frame, frame.columns, frame.columns + 8).empty());
  EXPECT_TRUE(reduce_to_scanlines(frame, -10, 0).empty());
}

TEST(ReduceToScanlines, FullFrameRoiMatchesPlainReduction) {
  const std::vector<ChannelSymbol> symbols(100, ChannelSymbol::data(3));
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto plain = reduce_to_scanlines(frame);
  // Both the exact range and an over-wide range (clamped) must reproduce
  // the full-frame reduction bit for bit.
  const auto exact = reduce_to_scanlines(frame, 0, frame.columns);
  const auto wide = reduce_to_scanlines(frame, -3, frame.columns + 3);
  ASSERT_EQ(exact.size(), plain.size());
  ASSERT_EQ(wide.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(exact[i].lightness, plain[i].lightness);
    EXPECT_EQ(exact[i].chroma.a, plain[i].chroma.a);
    EXPECT_EQ(exact[i].chroma.b, plain[i].chroma.b);
    EXPECT_EQ(wide[i].lightness, plain[i].lightness);
    EXPECT_EQ(wide[i].rgb.x, plain[i].rgb.x);
  }
}

TEST(SegmentBands, BandMayEndExactlyAtLastRow) {
  // A uniform frame's single band must close at the frame boundary with
  // its row extent inside [0, rows].
  const std::vector<ChannelSymbol> symbols(200, ChannelSymbol::data(1));
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto bands = segment_bands(frame, reduce_to_scanlines(frame), {});
  ASSERT_FALSE(bands.empty());
  const Band& last = bands.back();
  EXPECT_EQ(last.start_row + last.row_count, frame.rows);
  EXPECT_GT(last.end_time_s, last.start_time_s);
}

TEST(BandsToSlots, NonPositiveSymbolRateYieldsNoSlots) {
  std::vector<Band> bands;
  Band band;
  band.start_time_s = 0.0;
  band.end_time_s = 0.050;
  bands.push_back(band);
  EXPECT_TRUE(bands_to_slots(bands, 0.0).empty());
  EXPECT_TRUE(bands_to_slots(bands, -1000.0).empty());
  EXPECT_TRUE(bands_to_slots(bands, std::numeric_limits<double>::quiet_NaN()).empty());
}

TEST(ExtractSlots, NonPositiveSymbolRateYieldsNoSlots) {
  const std::vector<ChannelSymbol> symbols(60, ChannelSymbol::white());
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  EXPECT_TRUE(extract_slots(frame, 0.0).empty());
  EXPECT_TRUE(extract_slots(frame, std::numeric_limits<double>::quiet_NaN()).empty());
}

TEST(ExtractSlots, FullFrameRoiMatchesPlainExtraction) {
  std::vector<ChannelSymbol> symbols(80, ChannelSymbol::white());
  symbols[30] = ChannelSymbol::off();
  const camera::Frame frame = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto plain = extract_slots(frame, 2000);
  util::CaptureArena arena;
  const auto roi = extract_slots(frame, 2000, 0, frame.columns, arena);
  ASSERT_EQ(roi.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(roi[i].slot, plain[i].slot);
    EXPECT_EQ(roi[i].lightness, plain[i].lightness);
    EXPECT_EQ(roi[i].chroma.a, plain[i].chroma.a);
  }
}

TEST(ExtractSlots, VignettingDoesNotBreakChroma) {
  // Column averaging + CIELab should keep a colored band's chroma stable
  // even with strong vignetting (paper Fig. 8 rationale).
  std::vector<ChannelSymbol> symbols(120, ChannelSymbol::data(0));
  camera::SensorProfile vignetted = camera::ideal_profile();
  vignetted.vignette_strength = 0.5;
  const camera::Frame frame = capture_symbols(symbols, 2000, vignetted);
  const camera::Frame clean = capture_symbols(symbols, 2000, camera::ideal_profile());
  const auto slots_vignetted = extract_slots(frame, 2000);
  const auto slots_clean = extract_slots(clean, 2000);
  ASSERT_FALSE(slots_vignetted.empty());
  ASSERT_FALSE(slots_clean.empty());
  const auto& a = slots_vignetted[slots_vignetted.size() / 2];
  const auto& b = slots_clean[slots_clean.size() / 2];
  EXPECT_LT(color::delta_e_ab(a.chroma, b.chroma), 15.0);
}

}  // namespace
}  // namespace colorbars::rx
