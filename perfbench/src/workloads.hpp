#pragma once

// The benchmark's three workloads. Each runs one *unit* of work two
// ways:
//
//  * run_unit() drives the entry points users call
//    (core::LinkSimulator::run_*_trials, rx::StreamingReceiver
//    push_frame/poll/finish) with no instrumentation;
//  * replay_unit() performs the same unit one layer at a time through
//    the layers' public functions, in the order the library composes
//    them, with every call wrapped in a span.
//
// Both report each operation's simulated output as canonical text, so
// main.cpp can check byte for byte that iterations, thread counts and
// the traced replay all agree.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// What one unit of a workload produced.
struct UnitResult {
  /// (operation id, canonical text of its simulated output). Operations
  /// are trials, or frames for live-decode.
  std::vector<std::pair<long long, std::string>> ops;
  /// Host seconds of each push_frame + poll (live-decode only). The
  /// batch workloads decode inside run_*_trials, where no single frame's
  /// latency is visible from outside, and leave this empty.
  std::vector<double> frame_s;
  /// Simulated statistics (identical on every leg).
  double ser_errors = 0.0;    ///< symbol errors (see README: ser)
  double ser_observed = 0.0;  ///< symbols the errors are counted over
  double good_bits = 0.0;     ///< credited payload bits
  double air_s = 0.0;         ///< simulated air time the bits took
  /// A plausibility check failed for these operation ids (e.g. a trial
  /// that observed no symbols at all).
  std::vector<long long> implausible;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One-line description of the configuration, for provenance.
  [[nodiscard]] virtual std::string describe() const = 0;
  /// What an operation is ("trial" or "frame").
  [[nodiscard]] virtual const char* op_kind() const noexcept = 0;

  /// Runtime-pool threads the timed loop runs with, given the pinned
  /// count `pinned` (set-up always runs with `pinned`).
  [[nodiscard]] virtual unsigned timed_threads(unsigned pinned) const noexcept {
    return pinned;
  }
  /// Builds the inputs the timed loop consumes and warms up (caches
  /// filled, lazy set-up done). Repeatable; each call replaces the
  /// previous state.
  virtual void setup() = 0;
  /// One unit through the user entry points.
  [[nodiscard]] virtual UnitResult run_unit() = 0;
  /// A cheaper unit for the 1-thread agreement check of an untraced run
  /// (a seed-chosen subset of the operations); defaults to run_unit().
  [[nodiscard]] virtual UnitResult run_check_unit() { return run_unit(); }
  /// The same unit replayed layer by layer into `tracer`. The runtime
  /// pool must be pinned to one thread.
  [[nodiscard]] virtual UnitResult replay_unit(Tracer& tracer) = 0;
  /// True when replay_unit() also redoes setup() (its spans then cover
  /// the set-up render too).
  [[nodiscard]] virtual bool replay_includes_setup() const noexcept { return false; }

  /// Digest of the inputs setup() built, compared across repeated
  /// set-ups and thread counts (0 when set-up builds no data).
  [[nodiscard]] virtual std::uint64_t setup_digest() const { return 0; }

  /// Trials per unit (for trials_per_s).
  [[nodiscard]] virtual long long trials_per_unit() const = 0;
  /// Sensor frames per unit (for frames_per_s). Call after setup() and
  /// before timing: batch workloads count them from the capture plans.
  [[nodiscard]] virtual long long frames_per_unit() = 0;
};

/// The workload called `name`, seeded with `seed`, or nullptr.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
