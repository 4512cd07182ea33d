#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>

#include "colorbars/camera/camera.hpp"
#include "colorbars/channel/stages.hpp"
#include "colorbars/core/link.hpp"
#include "colorbars/frontend/frontend.hpp"
#include "colorbars/pd/frontend.hpp"
#include "colorbars/pipeline/buffer_pool.hpp"
#include "colorbars/pipeline/pipeline.hpp"
#include "colorbars/protocol/packetizer.hpp"
#include "colorbars/protocol/symbols.hpp"
#include "colorbars/runtime/seed.hpp"
#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/rx/band_extractor.hpp"
#include "colorbars/rx/receiver.hpp"
#include "colorbars/rx/streaming.hpp"
#include "colorbars/tx/transmitter.hpp"
#include "colorbars/util/arena.hpp"
#include "colorbars/util/rng.hpp"

namespace perfbench {
namespace {

using namespace colorbars;
using Scope = Tracer::Scope;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

void require_single_thread() {
  if (runtime::ThreadPool::shared().thread_count() != 1) {
    throw std::logic_error("the traced replay needs the runtime pool pinned to one thread");
  }
}

// ---- canonical output text ------------------------------------------------

std::string ser_text(const core::SerResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "sent=%lld observed=%lld errors=%lld loss=%.17g decisions=%lld "
                "fallbacks=%lld retrains=%lld train_fallbacks=%lld tap_norm=%.17g",
                r.symbols_sent, r.symbols_observed, r.symbol_errors,
                r.inter_frame_loss_ratio, r.engine_decisions, r.engine_fallback_decisions,
                r.engine_retrains, r.engine_train_fallbacks, r.engine_tap_norm);
  return buf;
}

void append_packets(std::string& out, std::span<const rx::PacketRecord> packets) {
  char buf[160];
  for (const rx::PacketRecord& p : packets) {
    std::snprintf(buf, sizeof buf, "[kind=%d ok=%d failure=%d start=%lld epoch=%d err=%d era=%d gap=%d ",
                  static_cast<int>(p.kind), p.ok ? 1 : 0, static_cast<int>(p.failure),
                  p.start_slot, p.epoch, p.corrected_errors, p.corrected_erasures,
                  p.erased_slots);
    out += buf;
    for (const std::uint8_t byte : p.payload) {
      std::snprintf(buf, sizeof buf, "%02x", byte);
      out += buf;
    }
    out += ']';
  }
}

std::string report_text(const rx::ReceiverReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "observed=%lld span=%lld scanned=%lld calibration=%d ok=%d failed=%d "
                "margin=%.17g/%lld ",
                report.slots_observed, report.slot_span, report.slots_scanned,
                report.calibration_packets, report.data_packets_ok,
                report.data_packets_failed, report.decision_margin_sum,
                report.decision_margin_count);
  std::string out = buf;
  append_packets(out, report.packets);
  return out;
}

/// Bytes of correctly recovered packets, prefix-matched against the
/// ground-truth messages exactly as core::LinkSimulator::run_payload
/// credits them.
std::size_t credited_bytes(std::span<const rx::PacketRecord> packets,
                           const std::vector<std::vector<std::uint8_t>>& truth) {
  std::size_t bytes = 0;
  std::size_t next_truth = 0;
  for (const rx::PacketRecord& record : packets) {
    if (record.kind != protocol::PacketKind::kData || !record.ok) continue;
    for (std::size_t t = next_truth; t < truth.size(); ++t) {
      if (record.payload == truth[t]) {
        bytes += record.payload.size();
        next_truth = t + 1;
        break;
      }
    }
  }
  return bytes;
}

/// Pre-RS error statistics of decoded data packets: bytes RS had to
/// correct or fill, over codeword bytes of the packets it decoded.
void add_codeword_errors(std::span<const rx::PacketRecord> packets, int rs_n,
                         UnitResult& out) {
  for (const rx::PacketRecord& p : packets) {
    if (p.kind != protocol::PacketKind::kData || !p.ok) continue;
    out.ser_errors += p.corrected_errors + p.corrected_erasures;
    out.ser_observed += rs_n;
  }
}

/// Receiver-side counters of a decoded report, recorded at the rx/eq/rs
/// boundaries of the traced replay.
void count_report(Tracer* tracer, const rx::ReceiverReport& report) {
  if (tracer == nullptr) return;
  tracer->count("rx.slots_scanned", static_cast<double>(report.slots_scanned));
  tracer->count("rx.packets_ok", report.data_packets_ok);
  tracer->count("rx.packets_failed", report.data_packets_failed);
  for (const rx::PacketRecord& p : report.packets) {
    tracer->count("rs.corrected_errors", p.corrected_errors);
    tracer->count("rs.corrected_erasures", p.corrected_erasures);
    tracer->count("rs.erased_slots", p.erased_slots);
  }
}

void count_engine(Tracer* tracer, long long decisions, long long fallbacks,
                  long long retrains) {
  if (tracer == nullptr) return;
  tracer->count("eq.decisions", static_cast<double>(decisions));
  tracer->count("eq.fallbacks", static_cast<double>(fallbacks));
  tracer->count("eq.retrains", static_cast<double>(retrains));
}

// ---- camera capture, rebuilt from public parts ----------------------------

/// Plans like pipeline::CameraTraceRenderer and wraps every planned-frame
/// render in a "camera.render" span.
class TracedRenderer final : public pipeline::FrameRenderer {
 public:
  TracedRenderer(camera::RollingShutterCamera& camera, const led::EmissionTrace& trace,
                 double start_offset_s, Tracer* tracer)
      : camera_(camera), trace_(trace), tracer_(tracer),
        plan_(camera.plan_capture(trace, start_offset_s)) {}

  [[nodiscard]] const camera::CapturePlan& plan() const noexcept override { return plan_; }
  void render(int frame_index, camera::Frame& out,
              camera::RenderScratch& scratch) const override {
    Scope span(tracer_, "camera.render");
    camera_.render_planned_frame(trace_, plan_, frame_index, out, scratch);
    if (tracer_ != nullptr) {
      tracer_->count("camera.frames", 1);
      tracer_->count("camera.pixels", static_cast<double>(out.rows) * out.columns);
    }
  }

 private:
  camera::RollingShutterCamera& camera_;
  const led::EmissionTrace& trace_;
  Tracer* tracer_;
  camera::CapturePlan plan_;
};

/// The capture half of frontend::CameraFrontend, wired the same way: the
/// camera and frame-stage chain seeded from the capture seed, a pooled
/// pipeline::FrameSource over the planned capture.
class CameraCapture {
 public:
  CameraCapture(const core::LinkConfig& config, const led::EmissionTrace& trace,
                double start_offset_s, std::uint64_t capture_seed, Tracer* tracer)
      : tracer_(tracer),
        camera_(config.profile,
                channel::OpticalChannel(config.channel,
                                        runtime::derive_stream_seed(
                                            capture_seed, frontend::kOpticalSeedStream)),
                capture_seed),
        stages_(config.channel, runtime::derive_stream_seed(
                                    capture_seed, frontend::kFrameStageSeedStream)),
        renderer_(camera_, trace, start_offset_s, tracer),
        source_(renderer_, pool_, source_config(config)) {}
  CameraCapture(const CameraCapture&) = delete;
  CameraCapture& operator=(const CameraCapture&) = delete;

  /// The next frame that survives the channel's frame stages, or nullptr
  /// at end of capture. Valid until the next call.
  const camera::Frame* next() {
    while (true) {
      camera::Frame* frame = nullptr;
      {
        Scope span(tracer_, "pipeline.next");
        frame = source_.next();
      }
      if (frame == nullptr) return nullptr;
      bool keep = true;
      {
        Scope span(tracer_, "camera.stages");
        for (pipeline::FrameStage* stage : stages_.stages()) {
          if (!stage->process(*frame)) {
            keep = false;
            break;
          }
        }
      }
      if (keep) return frame;
    }
  }

  [[nodiscard]] int planned_frames() const noexcept { return source_.total_frames(); }
  [[nodiscard]] long long refills() const noexcept { return source_.refills(); }
  [[nodiscard]] pipeline::BufferPoolStats pool_stats() const { return pool_.stats(); }

 private:
  static pipeline::SourceConfig source_config(const core::LinkConfig& config) {
    pipeline::SourceConfig source;
    source.lookahead = config.pipeline_lookahead;
    return source;
  }

  Tracer* tracer_;
  camera::RollingShutterCamera camera_;
  channel::StageChain stages_;
  pipeline::BufferPool pool_;
  TracedRenderer renderer_;
  pipeline::FrameSource source_;
};

void count_pipeline(Tracer* tracer, const CameraCapture& capture) {
  if (tracer == nullptr) return;
  const pipeline::BufferPoolStats pool = capture.pool_stats();
  tracer->count("pipeline.refills", static_cast<double>(capture.refills()));
  tracer->count("pipeline.pool_hits", static_cast<double>(pool.frame_hits));
  tracer->count("pipeline.pool_misses", static_cast<double>(pool.frame_misses));
  tracer->count_max("pipeline.peak_frames", static_cast<double>(pool.peak_outstanding_frames));
}

/// One frame's reduction, step by step as rx::extract_slots composes it.
std::vector<rx::SlotObservation> observe_frame(const camera::Frame& frame,
                                               double symbol_rate_hz,
                                               const rx::ExtractorConfig& extractor,
                                               util::CaptureArena& arena, Tracer* tracer) {
  std::span<const rx::ScanlineColor> scanlines;
  {
    Scope span(tracer, "rx.reduce");
    scanlines = rx::reduce_to_scanlines(frame, 0, frame.columns, arena);
  }
  std::vector<rx::Band> bands;
  {
    Scope span(tracer, "rx.segment");
    bands = rx::segment_bands(frame, scanlines, extractor);
  }
  std::vector<rx::SlotObservation> slots;
  {
    Scope span(tracer, "rx.slot_map");
    slots = rx::bands_to_slots(bands, symbol_rate_hz);
  }
  if (tracer != nullptr) {
    tracer->count("rx.bands", static_cast<double>(bands.size()));
    tracer->count("rx.observations", static_cast<double>(slots.size()));
  }
  return slots;
}

// ---- ser-sweep ---------------------------------------------------------------

/// run_ser's transmit half: the same RNG draws in the same order, the
/// calibration preamble and the combined emission trace.
struct SerEmission {
  std::optional<tx::Transmitter> transmitter;
  std::vector<int> symbols;
  tx::Transmission transmission;
  std::uint64_t capture_seed = 0;
  std::size_t calibration_slots = 0;
  led::EmissionTrace trace;
};

SerEmission emit_ser(const core::LinkConfig& config, int symbol_count, Tracer* tracer) {
  Scope span(tracer, "tx.transmit");
  SerEmission e;
  util::Xoshiro256 rng(config.seed);
  e.transmitter.emplace(config.transmitter_config());
  const int order_size = csk::symbol_count(config.order);
  e.symbols.resize(static_cast<std::size_t>(symbol_count));
  for (int& s : e.symbols) s = static_cast<int>(rng.below(static_cast<std::uint64_t>(order_size)));
  e.transmission = e.transmitter->transmit_raw_symbols(e.symbols);
  e.capture_seed = rng();

  const protocol::Packetizer& packetizer = e.transmitter->packetizer();
  const std::vector<protocol::ChannelSymbol> packets[] = {
      packetizer.build_calibration_packet(),
      packetizer.build_reversed_calibration_packet(),
      packetizer.build_rotated_calibration_packet(),
  };
  std::vector<protocol::ChannelSymbol> slots;
  for (int repeat = 0; repeat < 24; ++repeat) {
    const auto& packet = packets[repeat % 3];
    slots.insert(slots.end(), packet.begin(), packet.end());
    std::uint64_t state = static_cast<std::uint64_t>(repeat) + 0xca1;
    const int pad = static_cast<int>(
        util::splitmix64_next(state) %
        (static_cast<std::uint64_t>(config.symbol_rate_hz / config.profile.fps / 2) + 1));
    slots.insert(slots.end(), static_cast<std::size_t>(pad),
                 protocol::ChannelSymbol::white());
  }
  e.calibration_slots = slots.size();
  slots.insert(slots.end(), e.transmission.slots.begin(), e.transmission.slots.end());
  e.trace = e.transmitter->led().emit(
      protocol::drives_of(slots, e.transmitter->constellation()), config.symbol_rate_hz);
  if (tracer != nullptr) tracer->count("tx.slots", static_cast<double>(slots.size()));
  return e;
}

/// core::LinkSimulator::run_ser, one layer at a time.
core::SerResult replay_ser_trial(const core::LinkConfig& config, int symbol_count,
                                 Tracer* tracer) {
  const SerEmission e = emit_ser(config, symbol_count, tracer);
  std::optional<rx::Receiver> receiver;
  rx::ExtractorConfig extractor;
  {
    Scope span(tracer, "rx.init");
    const rx::ReceiverConfig rx_config = config.receiver_config();
    extractor = rx_config.extractor;
    receiver.emplace(rx_config);
  }
  std::optional<CameraCapture> capture;
  {
    Scope span(tracer, "camera.init");
    capture.emplace(config, e.trace, 0.0, e.capture_seed, tracer);
  }
  util::CaptureArena arena;
  std::vector<rx::SlotObservation> all;
  while (const camera::Frame* frame = capture->next()) {
    const std::vector<rx::SlotObservation> slots =
        observe_frame(*frame, config.symbol_rate_hz, extractor, arena, tracer);
    all.insert(all.end(), slots.begin(), slots.end());
  }
  count_pipeline(tracer, *capture);

  rx::SlotTimeline timeline;
  {
    Scope span(tracer, "rx.slot_map");
    timeline = rx::assemble_timeline(all);
  }
  {
    Scope span(tracer, "rx.parse");
    const rx::ReceiverReport report = receiver->parse(timeline);
    count_report(tracer, report);
  }

  core::SerResult result;
  {
    Scope span(tracer, "rx.classify");
    const long long data_start =
        static_cast<long long>(e.calibration_slots) +
        static_cast<long long>(e.transmission.slots.size() - e.symbols.size());
    result.symbols_sent = static_cast<long long>(e.symbols.size());
    for (std::size_t i = 0; i < e.symbols.size(); ++i) {
      const long long offset = data_start + static_cast<long long>(i) - timeline.base_slot;
      if (offset < 0 || offset >= static_cast<long long>(timeline.slots.size())) continue;
      if (!timeline.slots[static_cast<std::size_t>(offset)].has_value()) continue;
      ++result.symbols_observed;
      const int detected =
          receiver->classify_data(timeline, static_cast<std::size_t>(offset));
      if (detected != e.symbols[i]) ++result.symbol_errors;
    }
  }
  const eq::DecisionStats& decisions = receiver->engine().stats();
  const eq::EqualizerState& equalizer = receiver->store().equalizer();
  result.engine_decisions = decisions.decisions;
  result.engine_fallback_decisions = decisions.fallback_decisions;
  result.engine_retrains = equalizer.retrains;
  result.engine_train_fallbacks = equalizer.train_fallbacks;
  result.engine_tap_norm = equalizer.tap_norm();
  result.inter_frame_loss_ratio =
      result.symbols_sent > 0
          ? 1.0 - static_cast<double>(result.symbols_observed) /
                      static_cast<double>(result.symbols_sent)
          : 0.0;
  if (tracer != nullptr) {
    tracer->count("rx.slots_ingested", static_cast<double>(all.size()));
    tracer->count("rx.classified", static_cast<double>(result.symbols_observed));
    count_engine(tracer, result.engine_decisions, result.engine_fallback_decisions,
                 result.engine_retrains);
  }
  return result;
}

/// Fig. 9's path: run_ser_trials over {Nexus 5, iPhone 5S} x {CSK8, CSK16,
/// CSK32} x {1 kHz, 4 kHz}, 2 trials of 1.25 * rate symbols per point.
class SerSweep final : public Workload {
 public:
  explicit SerSweep(std::uint64_t seed) : seed_(seed) {}

  [[nodiscard]] std::string describe() const override {
    return "run_ser_trials over {nexus5, iphone5s} x {csk8, csk16, csk32} x {1000, 4000} Hz, " +
           std::to_string(kTrials) + " trials of 1.25*rate symbols per point";
  }
  [[nodiscard]] const char* op_kind() const noexcept override { return "trial"; }

  void setup() override {
    points_.clear();
    for (const camera::SensorProfile& profile :
         {camera::nexus5_profile(), camera::iphone5s_profile()}) {
      for (const csk::CskOrder order :
           {csk::CskOrder::kCsk8, csk::CskOrder::kCsk16, csk::CskOrder::kCsk32}) {
        for (const double rate : {1000.0, 4000.0}) {
          Point point;
          point.config.profile = profile;
          point.config.order = order;
          point.config.symbol_rate_hz = rate;
          point.config.seed = runtime::derive_stream_seed(seed_, points_.size());
          point.symbols = static_cast<int>(std::llround(1.25 * rate));
          points_.push_back(point);
        }
      }
    }
    // Warm-up: one short point on the largest sensor, trials in parallel
    // as in the timed loop, touches every lazy table and the frame-sized
    // allocations before timing starts.
    const core::LinkSimulator warm(points_.front().config);
    (void)warm.run_ser_trials(kTrials, points_.front().symbols / 5);
  }

  [[nodiscard]] UnitResult run_unit() override { return run_points(all_points()); }

  [[nodiscard]] UnitResult run_check_unit() override {
    // One seed-chosen point per sensor: both frame heights, a fraction of
    // the single-thread cost of the whole sweep.
    const std::size_t half = points_.size() / 2;
    return run_points({seed_ % half, half + (seed_ / half) % half});
  }

  [[nodiscard]] UnitResult replay_unit(Tracer& tracer) override {
    require_single_thread();
    UnitResult out;
    for (std::size_t p = 0; p < points_.size(); ++p) {
      for (int t = 0; t < kTrials; ++t) {
        core::LinkConfig config = points_[p].config;
        config.seed = runtime::derive_stream_seed(config.seed, static_cast<std::uint64_t>(t));
        const long long id = static_cast<long long>(p) * kTrials + t;
        tracer.set_trial(id);
        Scope span(&tracer, "trial");
        const core::SerResult result = replay_ser_trial(config, points_[p].symbols, &tracer);
        add_trial(out, p, id, result);
      }
    }
    return out;
  }

  [[nodiscard]] long long trials_per_unit() const override {
    return static_cast<long long>(points_.size()) * kTrials;
  }

  /// Camera frames the unit's trials render, from their capture plans.
  [[nodiscard]] long long frames_per_unit() override {
    if (frames_ == 0) {
      for (const Point& point : points_) {
        for (int t = 0; t < kTrials; ++t) {
          core::LinkConfig config = point.config;
          config.seed = runtime::derive_stream_seed(config.seed, static_cast<std::uint64_t>(t));
          const SerEmission e = emit_ser(config, point.symbols, nullptr);
          const CameraCapture capture(config, e.trace, 0.0, e.capture_seed, nullptr);
          frames_ += capture.planned_frames();
        }
      }
    }
    return frames_;
  }

 private:
  static constexpr int kTrials = 2;

  struct Point {
    core::LinkConfig config;
    int symbols = 0;
  };

  [[nodiscard]] std::vector<std::size_t> all_points() const {
    std::vector<std::size_t> indices(points_.size());
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    return indices;
  }

  UnitResult run_points(const std::vector<std::size_t>& indices) {
    UnitResult out;
    for (const std::size_t p : indices) {
      const core::LinkSimulator sim(points_[p].config);
      const core::SerBatchResult batch = sim.run_ser_trials(kTrials, points_[p].symbols);
      for (int t = 0; t < kTrials; ++t) {
        add_trial(out, p, static_cast<long long>(p) * kTrials + t,
                  batch.trials[static_cast<std::size_t>(t)]);
      }
    }
    return out;
  }

  void add_trial(UnitResult& out, std::size_t point, long long id,
                 const core::SerResult& result) const {
    out.ops.emplace_back(id, ser_text(result));
    const double rate = points_[point].config.symbol_rate_hz;
    const int bits = csk::bits_per_symbol(points_[point].config.order);
    out.ser_errors += static_cast<double>(result.symbol_errors);
    out.ser_observed += static_cast<double>(result.symbols_observed);
    out.good_bits +=
        static_cast<double>(bits) *
        static_cast<double>(result.symbols_observed - result.symbol_errors);
    out.air_s += static_cast<double>(result.symbols_sent) / rate;
    if (result.symbols_observed <= 0) out.implausible.push_back(id);
  }

  std::uint64_t seed_;
  std::vector<Point> points_;
  long long frames_ = 0;
};

// ---- packet emission shared by live-decode and pd-goodput -------------------

/// run_goodput's transmit half: the payload drawn from the simulator's
/// RNG, the transmission, then the capture seed and start phase.
struct GoodputEmission {
  std::optional<tx::Transmitter> transmitter;
  tx::Transmission transmission;
  std::uint64_t capture_seed = 0;
  double start_offset_s = 0.0;
};

GoodputEmission emit_goodput(const core::LinkConfig& config, double duration_s,
                             Tracer* tracer) {
  Scope span(tracer, "tx.transmit");
  GoodputEmission e;
  util::Xoshiro256 rng(config.seed);
  const tx::TransmitterConfig tx_config = config.transmitter_config();
  const protocol::Packetizer packetizer(tx_config.format, csk::Constellation(config.order));
  const int packet_slots = packetizer.data_packet_slots(tx_config.rs_n);
  const auto total_slots =
      static_cast<long long>(std::ceil(duration_s * config.symbol_rate_hz));
  const long long packet_count = std::max<long long>(1, total_slots / packet_slots);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(packet_count) *
                                    static_cast<std::size_t>(tx_config.rs_k));
  for (std::uint8_t& byte : payload) byte = static_cast<std::uint8_t>(rng.below(256));
  e.transmitter.emplace(config.transmitter_config());
  e.transmission = e.transmitter->transmit(payload);
  e.capture_seed = rng();
  e.start_offset_s = rng.uniform(0.0, config.profile.frame_period_s());
  if (tracer != nullptr) {
    tracer->count("tx.slots", static_cast<double>(e.transmission.slots.size()));
  }
  return e;
}

/// The photodiode frontend configuration core::LinkSimulator builds.
pd::PdFrontendConfig pd_frontend_config(const core::LinkConfig& config,
                                        double start_offset_s) {
  pd::PdFrontendConfig pd_config;
  pd_config.pd = config.pd;
  pd_config.channel = config.channel;
  pd_config.symbol_rate_hz = config.symbol_rate_hz;
  pd_config.start_offset_s = start_offset_s;
  return pd_config;
}

// ---- live-decode ---------------------------------------------------------------

/// The phone-side receiver alone: a 10 s Nexus 5 CSK16 @ 4 kHz capture
/// (fig. 11's headline point, nearest engine) rendered once in set-up and
/// held in memory; each unit decodes every frame through a fresh
/// StreamingReceiver (push_frame + poll per frame, then finish).
class LiveDecode final : public Workload {
 public:
  explicit LiveDecode(std::uint64_t seed) {
    config_.profile = camera::nexus5_profile();
    config_.order = csk::CskOrder::kCsk16;
    config_.symbol_rate_hz = 4000.0;
    config_.seed = runtime::derive_stream_seed(seed, 0);
  }

  [[nodiscard]] std::string describe() const override {
    return "StreamingReceiver push_frame+poll over a held 10 s nexus5 csk16 4000 Hz capture, "
           "nearest engine";
  }
  [[nodiscard]] const char* op_kind() const noexcept override { return "frame"; }
  /// Frames arrive on one camera-callback thread.
  [[nodiscard]] unsigned timed_threads(unsigned) const noexcept override { return 1; }

  void setup() override { prepare(nullptr); }

  [[nodiscard]] UnitResult run_unit() override {
    UnitResult out;
    rx::StreamingReceiver receiver(config_.receiver_config());
    std::vector<rx::PacketRecord> all;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      const std::int64_t start = now_ns();
      receiver.push_frame(frames_[i]);
      const std::vector<rx::PacketRecord> packets = receiver.poll();
      out.frame_s.push_back(seconds_since(start));
      std::string text;
      append_packets(text, packets);
      all.insert(all.end(), packets.begin(), packets.end());
      if (i + 1 == frames_.size()) {
        const std::vector<rx::PacketRecord> tail = receiver.finish();
        text += "|finish|";
        append_packets(text, tail);
        all.insert(all.end(), tail.begin(), tail.end());
      }
      out.ops.emplace_back(static_cast<long long>(i), std::move(text));
    }
    finish_unit(out, all);
    return out;
  }

  [[nodiscard]] UnitResult replay_unit(Tracer& tracer) override {
    require_single_thread();
    {
      Scope span(&tracer, "setup");
      prepare(&tracer);
    }
    Scope pass(&tracer, "pass");
    UnitResult out;
    std::optional<rx::StreamingReceiver> receiver;
    rx::ExtractorConfig extractor;
    {
      Scope span(&tracer, "rx.init");
      const rx::ReceiverConfig rx_config = config_.receiver_config();
      extractor = rx_config.extractor;
      receiver.emplace(rx_config);
    }
    util::CaptureArena arena;
    std::size_t reported = 0;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      tracer.set_trial(static_cast<long long>(i));
      const std::vector<rx::SlotObservation> slots =
          observe_frame(frames_[i], config_.symbol_rate_hz, extractor, arena, &tracer);
      {
        Scope span(&tracer, "rx.parse");
        receiver->push_observations(slots);
      }
      const std::vector<rx::PacketRecord>& packets = receiver->report().packets;
      std::string text;
      append_packets(text, std::span(packets).subspan(reported));
      reported = packets.size();
      if (i + 1 == frames_.size()) {
        {
          Scope span(&tracer, "rx.finish");
          receiver->on_stream_end();
        }
        text += "|finish|";
        append_packets(text, std::span(receiver->report().packets).subspan(reported));
      }
      out.ops.emplace_back(static_cast<long long>(i), std::move(text));
    }
    const rx::ReceiverReport& report = receiver->report();
    const rx::StreamingStats& stats = receiver->stats();
    count_report(&tracer, report);
    tracer.count("rx.slots_ingested", static_cast<double>(stats.slots_ingested));
    count_engine(&tracer, stats.engine_decisions, stats.engine_fallback_decisions,
                 stats.engine_retrains);
    finish_unit(out, report.packets);
    return out;
  }

  [[nodiscard]] bool replay_includes_setup() const noexcept override { return true; }
  [[nodiscard]] long long trials_per_unit() const override { return 1; }
  [[nodiscard]] long long frames_per_unit() override {
    return static_cast<long long>(frames_.size());
  }

  /// 64-bit digest of the held capture's pixels.
  [[nodiscard]] std::uint64_t setup_digest() const override {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const camera::Frame& frame : frames_) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(frame.pixels.data());
      const std::size_t size = frame.pixels.size() * sizeof(color::Rgb8);
      std::size_t i = 0;
      for (; i + 8 <= size; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes + i, 8);
        hash = (hash ^ word) * 0x100000001b3ULL;
        hash ^= hash >> 29;
      }
      for (; i < size; ++i) hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
    return hash;
  }

 private:
  static constexpr double kDurationS = 10.0;

  void prepare(Tracer* tracer) {
    emission_ = emit_goodput(config_, kDurationS, tracer);
    std::optional<CameraCapture> capture;
    {
      Scope span(tracer, "camera.init");
      capture.emplace(config_, emission_.transmission.trace, emission_.start_offset_s,
                      emission_.capture_seed, tracer);
    }
    // Copy into the buffers an earlier set-up left, so repeated set-ups
    // time the render rather than page faults.
    std::size_t held = 0;
    while (const camera::Frame* frame = capture->next()) {
      Scope span(tracer, "hold");
      if (held == frames_.size()) frames_.emplace_back();
      frames_[held++] = *frame;
    }
    frames_.resize(held);
    count_pipeline(tracer, *capture);
  }

  void finish_unit(UnitResult& out, std::span<const rx::PacketRecord> packets) const {
    const std::size_t bytes = credited_bytes(packets, emission_.transmission.packet_messages);
    out.good_bits = 8.0 * static_cast<double>(bytes);
    out.air_s = emission_.transmission.duration_s();
    add_codeword_errors(packets, config_.code().n, out);
    if (bytes == 0 && !out.ops.empty()) out.implausible.push_back(out.ops.back().first);
  }

  core::LinkConfig config_;
  GoodputEmission emission_;
  std::vector<camera::Frame> frames_;
};

// ---- pd-goodput ----------------------------------------------------------------

/// core::LinkSimulator::run_goodput on the photodiode frontend, one layer
/// at a time (run_payload's capture, streaming decode and crediting).
core::LinkRunResult replay_goodput_trial(const core::LinkConfig& config, double duration_s,
                                         Tracer* tracer) {
  const GoodputEmission e = emit_goodput(config, duration_s, tracer);
  std::optional<pd::PdFrontend> source;
  {
    Scope span(tracer, "pd.source");
    source.emplace(pd_frontend_config(config, e.start_offset_s), e.transmission.trace,
                   e.capture_seed);
  }
  std::optional<rx::StreamingReceiver> receiver;
  {
    Scope span(tracer, "rx.init");
    receiver.emplace(config.receiver_config());
  }
  std::vector<rx::SlotObservation> block;
  while (true) {
    bool more = false;
    {
      Scope span(tracer, "pd.source");
      more = source->next_block(block);
    }
    if (!more) break;
    {
      Scope span(tracer, "rx.parse");
      receiver->push_observations(block);
    }
    if (tracer != nullptr) {
      tracer->count("pd.blocks", 1);
      tracer->count("pd.observations", static_cast<double>(block.size()));
    }
  }
  {
    Scope span(tracer, "rx.finish");
    receiver->on_stream_end();
  }
  const rx::StreamingStats stats = receiver->stats();
  core::LinkRunResult result;
  result.report = receiver->take_report();
  result.air_time_s = e.transmission.duration_s();
  {
    Scope span(tracer, "core.credit");
    for (const auto& message : e.transmission.packet_messages) {
      result.payload_bytes += message.size();
    }
    result.recovered_bytes =
        credited_bytes(result.report.packets, e.transmission.packet_messages);
  }
  if (tracer != nullptr) {
    count_report(tracer, result.report);
    tracer->count("rx.slots_ingested", static_cast<double>(stats.slots_ingested));
    count_engine(tracer, stats.engine_decisions, stats.engine_fallback_decisions,
                 stats.engine_retrains);
  }
  return result;
}

/// The photodiode back half: CSK16 @ 32 kHz (LED cap raised to 64 kHz),
/// linear-MMSE engine with 2 channel taps and 3 FIR taps; each unit is
/// run_goodput_trials(4, 5 s).
class PdGoodput final : public Workload {
 public:
  explicit PdGoodput(std::uint64_t seed) {
    config_.profile = camera::ideal_profile();
    config_.frontend = frontend::FrontendKind::kPhotodiode;
    config_.order = csk::CskOrder::kCsk16;
    config_.symbol_rate_hz = 32000.0;
    config_.led.max_symbol_rate_hz = 64000.0;
    config_.engine.kind = eq::EngineKind::kLinearMmse;
    config_.engine.channel_taps = 2;
    config_.engine.equalizer_taps = 3;
    config_.seed = runtime::derive_stream_seed(seed, 0);
  }

  [[nodiscard]] std::string describe() const override {
    return "run_goodput_trials(" + std::to_string(kTrials) +
           ", 5 s) on the photodiode frontend, ideal profile, csk16 32000 Hz, mmse engine "
           "(2 channel taps, 3 FIR taps)";
  }
  [[nodiscard]] const char* op_kind() const noexcept override { return "trial"; }

  void setup() override {
    // Warm-up: one whole unit, so every pool thread's allocator has
    // grown to the trial-sized buffers before timing starts.
    const core::LinkSimulator warm(config_);
    (void)warm.run_goodput_trials(kTrials, kDurationS);
  }

  [[nodiscard]] UnitResult run_unit() override {
    UnitResult out;
    const core::LinkSimulator sim(config_);
    const core::GoodputBatchResult batch = sim.run_goodput_trials(kTrials, kDurationS);
    for (int t = 0; t < kTrials; ++t) add_trial(out, t, batch.trials[static_cast<std::size_t>(t)]);
    return out;
  }

  [[nodiscard]] UnitResult replay_unit(Tracer& tracer) override {
    require_single_thread();
    UnitResult out;
    for (int t = 0; t < kTrials; ++t) {
      core::LinkConfig config = config_;
      config.seed = runtime::derive_stream_seed(config_.seed, static_cast<std::uint64_t>(t));
      tracer.set_trial(t);
      Scope span(&tracer, "trial");
      add_trial(out, t, replay_goodput_trial(config, kDurationS, &tracer));
    }
    return out;
  }

  [[nodiscard]] long long trials_per_unit() const override { return kTrials; }

  [[nodiscard]] long long frames_per_unit() override {
    if (blocks_ == 0) {
      for (int t = 0; t < kTrials; ++t) {
        core::LinkConfig config = config_;
        config.seed = runtime::derive_stream_seed(config_.seed, static_cast<std::uint64_t>(t));
        const GoodputEmission e = emit_goodput(config, kDurationS, nullptr);
        const pd::PdFrontend source(pd_frontend_config(config, e.start_offset_s),
                                    e.transmission.trace, e.capture_seed);
        blocks_ += source.sampler().total_blocks();
      }
    }
    return blocks_;
  }

 private:
  static constexpr int kTrials = 4;
  static constexpr double kDurationS = 5.0;

  void add_trial(UnitResult& out, int trial, const core::LinkRunResult& result) const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "payload=%zu recovered=%zu air=%.17g ",
                  result.payload_bytes, result.recovered_bytes, result.air_time_s);
    out.ops.emplace_back(trial, buf + report_text(result.report));
    out.good_bits += 8.0 * static_cast<double>(result.recovered_bytes);
    out.air_s += result.air_time_s;
    add_codeword_errors(result.report.packets, config_.code().n, out);
    if (result.recovered_bytes == 0) out.implausible.push_back(trial);
  }

  core::LinkConfig config_;
  long long blocks_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "ser-sweep") return std::make_unique<SerSweep>(seed);
  if (name == "live-decode") return std::make_unique<LiveDecode>(seed);
  if (name == "pd-goodput") return std::make_unique<PdGoodput>(seed);
  return nullptr;
}

}  // namespace perfbench
