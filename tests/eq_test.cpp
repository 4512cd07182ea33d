// The pluggable symbol-decision engine seam (colorbars::eq). The
// default nearest-reference engine must be byte-identical to the
// pre-seam ΔE scan on every path (batch receiver, both streaming
// frontends, any thread count); the equalized engine must train
// deterministically, guard against ill-conditioned fits without
// emitting NaN, and actually beat the plain scan on the symbol-spaced
// ISI channel it exists for.

#include "colorbars/eq/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "colorbars/core/link.hpp"
#include "colorbars/eq/state.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/receiver.hpp"

namespace colorbars {
namespace {

std::vector<long long> flatten_report(const rx::ReceiverReport& report) {
  std::vector<long long> flat;
  flat.push_back(static_cast<long long>(report.packets.size()));
  for (const rx::PacketRecord& packet : report.packets) {
    flat.push_back(static_cast<long long>(packet.kind));
    flat.push_back(packet.ok ? 1 : 0);
    flat.push_back(static_cast<long long>(packet.failure));
    flat.push_back(packet.start_slot);
    flat.push_back(packet.corrected_errors);
    flat.push_back(packet.corrected_erasures);
    for (std::uint8_t byte : packet.payload) flat.push_back(byte);
  }
  for (std::uint8_t byte : report.payload) flat.push_back(byte);
  flat.push_back(report.slots_observed);
  flat.push_back(report.calibration_packets);
  flat.push_back(report.data_packets_ok);
  flat.push_back(report.data_packets_failed);
  return flat;
}

core::LinkConfig base_link(frontend::FrontendKind kind) {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk16;
  config.symbol_rate_hz = 2000.0;
  config.profile = camera::ideal_profile();
  config.frontend = kind;
  config.seed = 0xe9e9;
  return config;
}

/// The bench's moderate-ISI operating point: one echo tap exactly one
/// slot behind the direct path (the linear FIR equalizer's regime).
core::LinkConfig isi_link(eq::EngineKind engine) {
  core::LinkConfig config;
  config.order = csk::CskOrder::kCsk64;
  config.symbol_rate_hz = 2000.0;
  config.profile = camera::ideal_profile();
  config.engine.kind = engine;
  config.engine.channel_taps = 2;
  config.engine.equalizer_taps = 3;
  config.channel.isi.delay_spread_s = 0.00022;
  config.channel.isi.tap_spacing_s = 1.0 / config.symbol_rate_hz;
  config.channel.isi.taps = 2;
  return config;
}

TEST(Eq, EngineNames) {
  EXPECT_STREQ(eq::engine_name(eq::EngineKind::kNearestReference), "nearest");
  EXPECT_STREQ(eq::engine_name(eq::EngineKind::kLinearMmse), "mmse");
}

TEST(Eq, MakeEngineDispatchesOnKind) {
  for (const eq::EngineKind kind :
       {eq::EngineKind::kNearestReference, eq::EngineKind::kLinearMmse}) {
    eq::EngineConfig config;
    config.kind = kind;
    const auto engine = eq::make_engine(config);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_EQ(engine->stats().decisions, 0);
  }
}

TEST(Eq, EngineConfigValidateRejectsBadValues) {
  const auto rejects = [](auto mutate) {
    eq::EngineConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  rejects([](eq::EngineConfig& c) { c.channel_taps = 0; });
  rejects([](eq::EngineConfig& c) { c.channel_taps = 17; });
  rejects([](eq::EngineConfig& c) { c.equalizer_taps = 0; });
  rejects([](eq::EngineConfig& c) { c.equalizer_taps = 33; });
  rejects([](eq::EngineConfig& c) { c.mmse_lambda = -1.0; });
  rejects([](eq::EngineConfig& c) { c.max_tap_norm = 0.0; });
  rejects([](eq::EngineConfig& c) { c.reference_prior = -0.1; });
  rejects([](eq::EngineConfig& c) { c.train_iterations = 0; });
  // The defaults themselves must validate.
  EXPECT_NO_THROW(eq::EngineConfig{}.validate());
}

TEST(Eq, NearestEngineIsByteIdenticalToDefaultDecodeOnBothFrontends) {
  // The refactor's central pin: routing the ΔE scan through the engine
  // seam must not change a single decoded byte, on either frontend, at
  // any thread count.
  std::vector<std::uint8_t> payload(400);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 29 + 3);
  }
  for (const frontend::FrontendKind kind :
       {frontend::FrontendKind::kCamera, frontend::FrontendKind::kPhotodiode}) {
    core::LinkConfig default_config = base_link(kind);
    core::LinkConfig explicit_config = default_config;
    explicit_config.engine.kind = eq::EngineKind::kNearestReference;

    runtime::ThreadPool::set_shared_thread_count(1);
    core::LinkSimulator default_link(default_config);
    const std::vector<long long> reference =
        flatten_report(default_link.run_payload(payload).report);
    for (unsigned threads : {1u, 2u, 8u}) {
      runtime::ThreadPool::set_shared_thread_count(threads);
      core::LinkSimulator explicit_link(explicit_config);
      EXPECT_EQ(flatten_report(explicit_link.run_payload(payload).report), reference)
          << "frontend " << static_cast<int>(kind) << " diverged at " << threads
          << " threads";
    }
    runtime::ThreadPool::set_shared_thread_count(0);
  }
}

TEST(Eq, EqualizedDecodeIsThreadCountInvariant) {
  const core::LinkConfig config = isi_link(eq::EngineKind::kLinearMmse);
  runtime::ThreadPool::set_shared_thread_count(1);
  core::LinkSimulator reference_link(config);
  const core::SerResult reference = reference_link.run_ser(1200);
  EXPECT_GT(reference.engine_retrains, 0);
  for (unsigned threads : {2u, 8u}) {
    runtime::ThreadPool::set_shared_thread_count(threads);
    core::LinkSimulator link(config);
    const core::SerResult result = link.run_ser(1200);
    EXPECT_EQ(result.symbol_errors, reference.symbol_errors)
        << "diverged at " << threads << " threads";
    EXPECT_EQ(result.symbols_observed, reference.symbols_observed);
    EXPECT_EQ(result.engine_decisions, reference.engine_decisions);
    EXPECT_EQ(result.engine_fallback_decisions, reference.engine_fallback_decisions);
    EXPECT_EQ(result.engine_retrains, reference.engine_retrains);
    EXPECT_DOUBLE_EQ(result.engine_tap_norm, reference.engine_tap_norm);
  }
  runtime::ThreadPool::set_shared_thread_count(0);
}

TEST(Eq, IllConditionedTrainingFallsBackWithoutNan) {
  // A tap-norm bound far below any plausible fit makes every training
  // round fail the guard: the engine must count the fallback, keep the
  // state invalid, decode through the plain scan byte-identically, and
  // never emit a non-finite tap.
  core::LinkConfig guarded = isi_link(eq::EngineKind::kLinearMmse);
  guarded.channel.isi.delay_spread_s = 0.0;  // identity channel
  guarded.engine.max_tap_norm = 1e-9;
  core::LinkConfig nearest = guarded;
  nearest.engine.kind = eq::EngineKind::kNearestReference;

  core::LinkSimulator guarded_link(guarded);
  const core::SerResult guarded_result = guarded_link.run_ser(1200);
  core::LinkSimulator nearest_link(nearest);
  const core::SerResult nearest_result = nearest_link.run_ser(1200);

  EXPECT_GT(guarded_result.engine_train_fallbacks, 0);
  EXPECT_EQ(guarded_result.engine_retrains, 0);
  EXPECT_TRUE(std::isfinite(guarded_result.engine_tap_norm));
  // Every decision fell back to the nearest scan, so the measurement
  // matches the nearest engine exactly.
  EXPECT_EQ(guarded_result.symbol_errors, nearest_result.symbol_errors);
  EXPECT_EQ(guarded_result.engine_fallback_decisions, guarded_result.engine_decisions);
}

TEST(Eq, EqualizedEngineBeatsNearestOnSymbolSpacedIsi) {
  // The extension's reason to exist (and the bench acceptance gate):
  // on the moderate symbol-spaced echo channel, CSK64 under the plain
  // scan fails the RS-correctable SER threshold while the equalized
  // engine holds below it.
  core::LinkSimulator nearest_link(isi_link(eq::EngineKind::kNearestReference));
  const double nearest_ser = nearest_link.run_ser(3000).ser();
  core::LinkSimulator mmse_link(isi_link(eq::EngineKind::kLinearMmse));
  const core::SerResult mmse = mmse_link.run_ser(3000);

  const core::LinkConfig reference = isi_link(eq::EngineKind::kLinearMmse);
  const rs::CodeParameters code = reference.code();
  const double rs_threshold =
      0.5 * static_cast<double>(code.n - code.k) / static_cast<double>(code.n);
  EXPECT_GT(nearest_ser, rs_threshold);
  EXPECT_LT(mmse.ser(), rs_threshold);
  EXPECT_GT(mmse.engine_retrains, 0);
  EXPECT_GT(mmse.engine_tap_norm, 0.0);
}

TEST(Eq, Csk64CarriesSixBitsAndValidConstellation) {
  EXPECT_EQ(csk::bits_per_symbol(csk::CskOrder::kCsk64), 6);
  EXPECT_EQ(csk::symbol_count(csk::CskOrder::kCsk64), 64);
  const csk::Constellation constellation(csk::CskOrder::kCsk64);
  EXPECT_EQ(constellation.size(), 64);
  // Every point stays inside the LED gamut.
  for (const color::Chromaticity& p : constellation.points()) {
    EXPECT_TRUE(constellation.gamut().contains(p, 1e-6));
  }
}

}  // namespace
}  // namespace colorbars
