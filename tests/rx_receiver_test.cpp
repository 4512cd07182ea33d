#include "colorbars/rx/receiver.hpp"

#include <gtest/gtest.h>

#include "colorbars/camera/camera.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/flicker/bloch.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/rng.hpp"

namespace colorbars::rx {
namespace {

struct LinkFixture {
  explicit LinkFixture(csk::CskOrder order = csk::CskOrder::kCsk8,
                       double rate = 2000.0,
                       camera::SensorProfile profile = camera::ideal_profile()) {
    const rs::CodeParameters code = core::derive_link_code(
        order, rate, profile.fps, profile.inter_frame_loss_ratio, 0.8);
    tx_config.format.order = order;
    tx_config.format.illumination_ratio = 0.8;
    tx_config.symbol_rate_hz = rate;
    tx_config.rs_n = code.n;
    tx_config.rs_k = code.k;
    rx_config.format = tx_config.format;
    rx_config.symbol_rate_hz = rate;
    rx_config.rs_n = code.n;
    rx_config.rs_k = code.k;
    this->profile = std::move(profile);
  }

  std::vector<camera::Frame> send(std::span<const std::uint8_t> payload,
                                  tx::Transmission* out = nullptr,
                                  std::uint64_t camera_seed = 31337) {
    const tx::Transmitter transmitter(tx_config);
    tx::Transmission transmission = transmitter.transmit(payload);
    camera::RollingShutterCamera camera(profile, {}, camera_seed);
    auto frames = camera.capture_video(transmission.trace);
    if (out != nullptr) *out = std::move(transmission);
    return frames;
  }

  std::vector<std::uint8_t> random_payload(std::size_t size, std::uint64_t seed = 9) {
    util::Xoshiro256 rng(seed);
    std::vector<std::uint8_t> payload(size);
    for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
    return payload;
  }

  tx::TransmitterConfig tx_config;
  ReceiverConfig rx_config;
  camera::SensorProfile profile;
};

TEST(Receiver, EmptyFrameSetYieldsEmptyReport) {
  LinkFixture fixture;
  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.process({});
  EXPECT_TRUE(report.packets.empty());
  EXPECT_EQ(report.slots_observed, 0);
}

TEST(Receiver, RecoversSmallPayloadEndToEnd) {
  LinkFixture fixture;
  const auto payload = fixture.random_payload(80);
  tx::Transmission transmission;
  const auto frames = fixture.send(payload, &transmission);

  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.process(frames);
  EXPECT_GE(report.calibration_packets, 1);
  EXPECT_GT(report.data_packets_ok, 0);
  // Every recovered packet matches its ground-truth message.
  std::size_t ok_index = 0;
  for (const PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
    bool found = false;
    for (const auto& truth : transmission.packet_messages) {
      if (record.payload == truth) found = true;
    }
    EXPECT_TRUE(found) << "packet " << ok_index << " does not match any message";
    ++ok_index;
  }
}

TEST(Receiver, CollectObservesMostSlots) {
  LinkFixture fixture;
  const auto payload = fixture.random_payload(30);
  tx::Transmission transmission;
  const auto frames = fixture.send(payload, &transmission);
  Receiver receiver(fixture.rx_config);
  const SlotTimeline timeline = receiver.collect(frames);
  const double observed_fraction =
      static_cast<double>(timeline.observed_count()) /
      static_cast<double>(transmission.slots.size());
  // Should observe roughly (1 - loss ratio) of all slots. Exposure
  // reach-back at frame starts and band-edge rounding recover a few
  // extra slots per gap, so the tolerance is generous upward.
  EXPECT_NEAR(observed_fraction, 1.0 - fixture.profile.inter_frame_loss_ratio, 0.10);
}

TEST(Receiver, GapErasuresAreCorrected) {
  LinkFixture fixture;
  const auto payload = fixture.random_payload(140);
  const auto frames = fixture.send(payload);
  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.process(frames);
  bool saw_erasure_recovery = false;
  for (const PacketRecord& record : report.packets) {
    if (record.ok && record.corrected_erasures > 0) saw_erasure_recovery = true;
  }
  EXPECT_TRUE(saw_erasure_recovery);
}

TEST(Receiver, DataBeforeCalibrationIsDiscarded) {
  // Build a transmission whose calibration cadence is disabled, so the
  // cold receiver can never calibrate: all data packets must fail with
  // kNotCalibrated rather than decode garbage.
  LinkFixture fixture;
  fixture.tx_config.calibration_rate_hz = 0.0;

  // transmit() always prepends a white warm-up and one calibration
  // packet; strip both by re-emitting only the data slots.
  const tx::Transmitter transmitter(fixture.tx_config);
  const auto payload = fixture.random_payload(20);
  tx::Transmission transmission = transmitter.transmit(payload);
  const csk::Constellation constellation(fixture.tx_config.format.order);
  const protocol::Packetizer packetizer(fixture.tx_config.format, constellation);
  const std::size_t warmup_size =
      static_cast<std::size_t>(std::ceil(fixture.tx_config.symbol_rate_hz * 0.05));
  // Cold start sends two full cycles of the three calibration variants.
  const std::size_t calibration_size =
      warmup_size + 2 * (packetizer.build_calibration_packet().size() +
                         packetizer.build_reversed_calibration_packet().size() +
                         packetizer.build_rotated_calibration_packet().size());
  std::vector<protocol::ChannelSymbol> without_calibration(
      transmission.slots.begin() + static_cast<std::ptrdiff_t>(calibration_size),
      transmission.slots.end());
  const led::TriLed led;
  const led::EmissionTrace trace = led.emit(
      protocol::drives_of(without_calibration, constellation),
      fixture.tx_config.symbol_rate_hz);

  camera::RollingShutterCamera camera(fixture.profile, {}, 5);
  const auto frames = camera.capture_video(trace);
  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.process(frames);
  EXPECT_EQ(report.data_packets_ok, 0);
  for (const PacketRecord& record : report.packets) {
    if (record.kind == protocol::PacketKind::kData) {
      EXPECT_EQ(record.failure, PacketFailure::kNotCalibrated);
    }
  }
}

/// The clean observation a perfect camera would produce for one
/// transmitted channel symbol (the protocol fuzz's synthetic channel).
SlotObservation ideal_observation(const protocol::ChannelSymbol& symbol,
                                  const csk::Constellation& constellation,
                                  const led::TriLed& led) {
  SlotObservation observation;
  const color::Lab lab =
      flicker::radiance_to_lab(led.radiance(protocol::drive_of(symbol, constellation)));
  observation.chroma = color::chroma_of(lab);
  observation.lightness = lab.L;
  observation.rgb = {lab.L / 100.0, lab.L / 100.0, lab.L / 100.0};
  return observation;
}

TEST(Receiver, ParseDecodesDataPacketsThatPrecedeTheFirstCalibration) {
  // The batch receiver decodes the capture offline (as the paper does
  // for its iPhone receiver), so data packets sent before the first
  // calibration packet must still decode against it: parse pre-scans
  // the whole timeline for calibration before the sequential pass.
  LinkFixture fixture;
  const csk::Constellation constellation(fixture.tx_config.format.order);
  const protocol::Packetizer packetizer(fixture.tx_config.format, constellation);
  const rs::ReedSolomon code(fixture.rx_config.rs_n, fixture.rx_config.rs_k);

  std::vector<protocol::ChannelSymbol> slots(20, protocol::ChannelSymbol::white());
  std::vector<std::vector<std::uint8_t>> messages;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    messages.push_back(
        fixture.random_payload(static_cast<std::size_t>(fixture.rx_config.rs_k), seed));
    const auto packet = packetizer.build_data_packet(code.encode(messages.back()));
    slots.insert(slots.end(), packet.begin(), packet.end());
  }
  const auto calibration = packetizer.build_calibration_packet();
  slots.insert(slots.end(), calibration.begin(), calibration.end());
  slots.insert(slots.end(), 20, protocol::ChannelSymbol::white());

  const led::TriLed led;
  SlotTimeline timeline;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    SlotObservation observation = ideal_observation(slots[i], constellation, led);
    observation.slot = static_cast<long long>(i);
    timeline.slots.emplace_back(observation);
  }

  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.parse(timeline);
  EXPECT_EQ(report.calibration_packets, 1);
  EXPECT_EQ(report.data_packets_failed, 0);
  ASSERT_EQ(report.data_packets_ok, 3);
  std::size_t next = 0;
  for (const PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData) continue;
    EXPECT_LT(record.start_slot, static_cast<long long>(slots.size() - calibration.size()));
    EXPECT_EQ(record.payload, messages[next++]);
  }
}

TEST(Receiver, WorksAcrossAllOrders) {
  for (const csk::CskOrder order : csk::all_orders()) {
    LinkFixture fixture(order, 2000.0);
    // Enough packets that the header/gap phase sweep (a packet is sized
    // to one frame period) cannot discard every packet.
    const auto payload = fixture.random_payload(120);
    const auto frames = fixture.send(payload);
    // CSK64's packing is below the plain scan's noise floor by design —
    // it is exactly the order the equalized engine exists for, so the
    // top order decodes through it.
    rx::ReceiverConfig config = fixture.rx_config;
    if (order == csk::CskOrder::kCsk64) {
      config.engine.kind = eq::EngineKind::kLinearMmse;
    }
    Receiver receiver(config);
    const ReceiverReport report = receiver.process(frames);
    EXPECT_GT(report.data_packets_ok, 0) << "order " << static_cast<int>(order);
  }
}

TEST(Receiver, WorksOnBothDeviceProfiles) {
  for (const auto& profile : {camera::nexus5_profile(), camera::iphone5s_profile()}) {
    LinkFixture fixture(csk::CskOrder::kCsk8, 2000.0, profile);
    const auto payload = fixture.random_payload(120);
    const auto frames = fixture.send(payload);
    Receiver receiver(fixture.rx_config);
    const ReceiverReport report = receiver.process(frames);
    EXPECT_GT(report.data_packets_ok, 0) << profile.name;
  }
}

TEST(Receiver, CalibrationRefreshTracksExposureDrift) {
  // Later calibration packets must replace earlier references.
  LinkFixture fixture;
  const auto payload = fixture.random_payload(200);
  const auto frames = fixture.send(payload);
  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.process(frames);
  EXPECT_GE(report.calibration_packets, 2);
  EXPECT_TRUE(receiver.store().calibrated());
}

TEST(Receiver, ReportAccountsForEveryDataPacketOutcome) {
  LinkFixture fixture;
  const auto payload = fixture.random_payload(80);
  const auto frames = fixture.send(payload);
  Receiver receiver(fixture.rx_config);
  const ReceiverReport report = receiver.process(frames);
  int ok = 0;
  int failed = 0;
  for (const PacketRecord& record : report.packets) {
    if (record.kind != protocol::PacketKind::kData) continue;
    record.ok ? ++ok : ++failed;
  }
  EXPECT_EQ(ok, report.data_packets_ok);
  EXPECT_EQ(failed, report.data_packets_failed);
  EXPECT_EQ(report.payload.size(),
            static_cast<std::size_t>(ok) * static_cast<std::size_t>(fixture.rx_config.rs_k));
}

}  // namespace
}  // namespace colorbars::rx
