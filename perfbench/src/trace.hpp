#pragma once

// In-memory span recorder for the benchmark's traced replay. The replay
// wraps every call into a library layer in a Scope; each Scope becomes
// one span (name, start, end, parent, trial id). Spans stay in memory
// until the run ends, then give per-layer self times and are written
// out as JSON for perfbench/report.py.
//
// A span name is "<layer>.<step>" (e.g. "rx.reduce"); names without a
// dot ("trial", "setup", "pass") are roots that only group their
// children and belong to no layer. The recorder is single-threaded: the
// traced replay runs with the runtime pool pinned to one thread, so
// every library call executes on the thread that opened its Scope.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  int name = 0;        ///< index into the tracer's name table
  int parent = -1;     ///< index of the enclosing span, -1 for none
  long long trial = 0; ///< operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// RAII span: opens on construction, closes on destruction. A null
  /// tracer makes it a no-op, so one code path serves both legs.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name)
        : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  Tracer();

  /// Tags spans opened from now on with operation `trial`.
  void set_trial(long long trial) noexcept { trial_ = trial; }

  /// Adds `delta` to the named counter (work counts recorded at the
  /// same boundaries as the spans).
  void count(const std::string& name, double delta) { counters_[name] += delta; }
  void count_max(const std::string& name, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] double counter(const std::string& name) const;

  /// Self time in seconds per span name: duration minus the part its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Durations in milliseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Writes spans, counters and `header` (a JSON object body of extra
  /// fields) to `path`. Returns false when the file cannot be written.
  bool write_json(const std::string& path, const std::string& header) const;

 private:
  int open(std::string_view name);
  void close(int index);
  int intern(std::string_view name);

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> ids_;
  std::map<std::string, double> counters_;
  long long trial_ = 0;
};

/// Layer of a span name: the part before the first '.', or "" for a root.
[[nodiscard]] std::string layer_of(std::string_view name);

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

}  // namespace perfbench
