// The repository benchmark. One invocation runs one workload:
//
//   colorbars_perfbench --workload <ser-sweep|live-decode|pd-goodput>
//                       --seed <n> --seconds <s> --trace <0|1>
//                       [--trace-out <file>] [--git-rev <rev>]
//
// The runtime pool is pinned to min(4, nproc) threads for set-up and for
// the batch workloads' timed loops; live-decode's timed loop runs on one
// thread, as frames arrive on one camera callback.
//
// --trace 0 measures the end-to-end metrics: repeated set-ups, then
// whole units through the user entry points until --seconds have passed
// (at least two units), then an agreement check at the other thread
// count. --trace 1 measures the per-layer metrics: one unit at the timed
// thread count, one 1-thread unit and one traced 1-thread replay of the
// same unit; the spans go to --trace-out.
//
// Every leg's simulated outputs are compared byte for byte (iteration
// against iteration, 1 thread against the pinned count, traced replay
// against untraced). The last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics. The exit code is 0
// only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "colorbars/runtime/thread_pool.hpp"
#include "colorbars/simd/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kMaxThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  std::string git_rev = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of the output checks: operations attempted and failed, and a
/// note per failed check.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> notes;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: colorbars_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] [--git-rev <rev>]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--git-rev") {
      args.git_rev = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void pin_threads(unsigned threads) { colorbars::runtime::ThreadPool::set_shared_thread_count(threads); }

/// Ids whose text differs between `reference` and `other`, or that only
/// one of them has.
std::set<long long> mismatched_ops(const UnitResult& reference, const UnitResult& other,
                                   bool other_is_subset) {
  std::map<long long, const std::string*> ref;
  for (const auto& [id, text] : reference.ops) ref[id] = &text;
  std::set<long long> bad;
  std::set<long long> seen;
  for (const auto& [id, text] : other.ops) {
    seen.insert(id);
    const auto found = ref.find(id);
    if (found == ref.end() || *found->second != text) bad.insert(id);
  }
  if (!other_is_subset) {
    for (const auto& [id, text] : ref) {
      if (seen.count(id) == 0) bad.insert(id);
    }
  }
  return bad;
}

void note_mismatch(Checks& checks, const std::set<long long>& bad, const char* what) {
  if (bad.empty()) return;
  checks.failed += static_cast<long long>(bad.size());
  checks.notes.push_back(std::string(what) + ": " + std::to_string(bad.size()) +
                         " operation(s) differ, first id " + std::to_string(*bad.begin()));
}

/// Simulated end-to-end statistics of one unit.
double ser_of(const UnitResult& unit) {
  return unit.ser_observed > 0.0 ? unit.ser_errors / unit.ser_observed : 0.0;
}
double goodput_of(const UnitResult& unit) {
  return unit.air_s > 0.0 ? unit.good_bits / unit.air_s : 0.0;
}

std::string provenance_json(const Args& args, const Workload& workload, unsigned threads) {
  return std::string("{\"workload\": ") + json_string(args.workload) +
         ", \"config\": " + json_string(workload.describe()) +
         ", \"operation\": " + json_string(workload.op_kind()) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"run_seconds\": " + json_number(args.seconds) +
         ", \"trace\": " + std::to_string(args.trace) +
         ", \"git_rev\": " + json_string(args.git_rev) +
         ", \"threads\": " + std::to_string(threads) +
         ", \"timed_threads\": " + std::to_string(workload.timed_threads(threads)) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_backend\": " +
         json_string(colorbars::simd::backend_name(colorbars::simd::active_backend())) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(__VERSION__) + "}";
}

/// Untraced run: end-to-end metrics.
std::vector<Metric> run_untraced(const Args& args, Workload& workload, unsigned threads,
                                 Checks& checks) {
  // Set-up, several times (at least 3, more while they add up to under
  // 2 s, at most 9); every repetition must rebuild identical inputs.
  std::vector<double> setup_s;
  std::uint64_t digest = 0;
  double setup_total_s = 0.0;
  for (int i = 0; i < 9 && (i < 3 || setup_total_s < 2.0); ++i) {
    const std::int64_t start = now_ns();
    workload.setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    setup_total_s += setup_s.back();
    const std::uint64_t d = workload.setup_digest();
    if (i == 0) {
      digest = d;
    } else if (d != digest) {
      checks.failed += 1;
      checks.notes.push_back("set-up " + std::to_string(i) + " built different inputs");
    }
  }
  const long long frames_per_unit = workload.frames_per_unit();

  // Timed leg: whole units until the run length has passed, at least two
  // so every unit after the first can be checked against it.
  const unsigned timed_threads = workload.timed_threads(threads);
  pin_threads(timed_threads);
  std::vector<UnitResult> units;
  std::vector<double> unit_s;
  double timed_s = 0.0;
  while (units.size() < 2 || timed_s < args.seconds) {
    const std::int64_t start = now_ns();
    units.push_back(workload.run_unit());
    unit_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    timed_s += unit_s.back();
  }

  // Checks: every unit reproduces the first, and a check leg at the other
  // thread count (1, or the pinned count when the timed loop runs on one
  // thread) agrees with it.
  const UnitResult& first = units.front();
  for (std::size_t k = 0; k < units.size(); ++k) {
    checks.attempted += static_cast<long long>(units[k].ops.size());
    checks.failed += static_cast<long long>(units[k].implausible.size());
    if (k > 0) note_mismatch(checks, mismatched_ops(first, units[k], false), "iteration");
  }
  if (!first.implausible.empty()) {
    checks.notes.push_back("implausible output in operation " +
                           std::to_string(first.implausible.front()));
  }
  const unsigned check_threads = timed_threads == 1 ? threads : 1;
  pin_threads(check_threads);
  const UnitResult other = workload.run_check_unit();
  pin_threads(threads);
  note_mismatch(checks, mismatched_ops(first, other, true),
                check_threads == 1 ? "1-thread leg" : "pinned-thread leg");

  // Per-frame latency: push_frame + poll samples where the workload has
  // them (live-decode); the batch workloads report the timed leg's mean
  // host ms per frame as both statistics.
  const double unit_count = static_cast<double>(units.size());
  const double frames = unit_count * static_cast<double>(frames_per_unit);
  std::vector<double> latency_ms;
  for (const UnitResult& unit : units) {
    for (const double s : unit.frame_s) latency_ms.push_back(1e3 * s);
  }
  const bool per_frame = !latency_ms.empty();
  if (!per_frame) latency_ms.push_back(1e3 * timed_s / std::max(frames, 1.0));
  std::printf("set-up: %zu repetitions, median %.4f s\n", setup_s.size(),
              percentile(setup_s, 0.5));
  std::printf("timed: %zu units in %.3f s at %u thread(s); unit walls:", units.size(), timed_s,
              timed_threads);
  for (const double wall : unit_s) std::printf(" %.3f", wall);
  if (per_frame) {
    std::printf("\nlatency ms per frame (%zu samples): p50 %.4f p75 %.4f p90 %.4f p95 %.4f "
                "p99 %.4f max %.4f\n",
                latency_ms.size(), percentile(latency_ms, 0.5), percentile(latency_ms, 0.75),
                percentile(latency_ms, 0.9), percentile(latency_ms, 0.95),
                percentile(latency_ms, 0.99), percentile(latency_ms, 1.0));
  } else {
    std::printf("\nmean host ms per frame %.4f over %.0f frames (no per-frame samples)\n",
                latency_ms.front(), frames);
  }
  return {
      {"setup_s", percentile(setup_s, 0.5), "s"},
      {"trials_per_s", unit_count * static_cast<double>(workload.trials_per_unit()) / timed_s,
       "1/s"},
      {"frames_per_s", frames / timed_s, "1/s"},
      {"decode_ms_p50", percentile(latency_ms, 0.50), "ms"},
      {"decode_ms_p95", percentile(latency_ms, 0.95), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"goodput_bps", goodput_of(first), "bit/s"},
  };
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Traced run: per-layer metrics from one unit at the timed thread
/// count, one 1-thread unit and one traced 1-thread replay.
std::vector<Metric> run_traced(const Args& args, Workload& workload, unsigned threads,
                               Checks& checks) {
  workload.setup();
  const std::uint64_t digest = workload.setup_digest();
  pin_threads(workload.timed_threads(threads));
  std::int64_t start = now_ns();
  const UnitResult pinned = workload.run_unit();
  const double pinned_s = static_cast<double>(now_ns() - start) * 1e-9;

  pin_threads(1);
  // The 1-thread leg does the traced replay's work untraced: the unit,
  // plus set-up when the replay redoes it.
  start = now_ns();
  if (workload.replay_includes_setup()) workload.setup();
  const std::int64_t unit_start = now_ns();
  const UnitResult single = workload.run_unit();
  const double single_unit_s = static_cast<double>(now_ns() - unit_start) * 1e-9;
  const double single_s = static_cast<double>(now_ns() - start) * 1e-9;
  const std::uint64_t single_digest = workload.setup_digest();

  Tracer tracer;
  start = now_ns();
  const UnitResult traced = workload.replay_unit(tracer);
  const double traced_s = static_cast<double>(now_ns() - start) * 1e-9;
  const std::uint64_t traced_digest = workload.setup_digest();
  pin_threads(threads);

  checks.attempted = static_cast<long long>(pinned.ops.size());
  checks.failed += static_cast<long long>(pinned.implausible.size());
  if (single_digest != digest || traced_digest != digest) {
    checks.failed += 1;
    checks.notes.push_back("set-up inputs differ between thread counts or the traced replay");
  }
  note_mismatch(checks, mismatched_ops(pinned, single, false), "1-thread leg");
  note_mismatch(checks, mismatched_ops(pinned, traced, false), "traced replay");

  const std::map<std::string, double> self = tracer.self_seconds();
  auto self_of = [&self](const std::string& name) {
    const auto found = self.find(name);
    return found == self.end() ? 0.0 : found->second;
  };
  auto layer_self = [&self](const std::string& layer) {
    double sum = 0.0;
    for (const auto& [name, seconds] : self) {
      if (layer_of(name) == layer) sum += seconds;
    }
    return sum;
  };
  double covered = 0.0;
  for (const auto& [name, seconds] : self) {
    if (!layer_of(name).empty()) covered += seconds;
  }
  const double coverage = ratio(covered, traced_s);
  const double overhead = ratio(traced_s, single_s) - 1.0;
  auto c = [&tracer](const std::string& name) { return tracer.counter(name); };

  if (!args.trace_out.empty()) {
    const std::string header =
        "\"provenance\": " + provenance_json(args, workload, threads) +
        ",\n\"traced_wall_s\": " + json_number(traced_s) +
        ", \"untraced_1thread_wall_s\": " + json_number(single_s) +
        ", \"pinned_unit_s\": " + json_number(pinned_s) +
        ", \"single_unit_s\": " + json_number(single_unit_s);
    if (!tracer.write_json(args.trace_out, header)) {
      std::fprintf(stderr, "warning: cannot write span dump %s\n", args.trace_out.c_str());
    } else {
      std::printf("span dump: %s (%zu spans)\n", args.trace_out.c_str(), tracer.spans().size());
    }
  }
  std::printf("legs: timed-thread unit %.3f s, 1-thread %.3f s (unit %.3f s), traced %.3f s\n",
              pinned_s, single_s, single_unit_s, traced_s);
  for (const char* layer : {"tx", "camera", "pipeline", "pd", "rx", "core"}) {
    std::printf("  self %-9s %9.4f s  %5.1f%%\n", layer, layer_self(layer),
                100.0 * ratio(layer_self(layer), traced_s));
  }

  const double fail_ratio =
      ratio(static_cast<double>(checks.failed), static_cast<double>(checks.attempted));
  return {
      {"camera.render_s", layer_self("camera"), "s"},
      {"camera.render_ms_p50", percentile(tracer.durations_ms("camera.render"), 0.5), "ms"},
      {"camera.ns_per_px", 1e9 * ratio(self_of("camera.render"), c("camera.pixels")), "ns/px"},
      {"camera.frames", c("camera.frames"), "count"},
      {"rx.reduce_s", self_of("rx.reduce"), "s"},
      {"rx.reduce_ms_p50", percentile(tracer.durations_ms("rx.reduce"), 0.5), "ms"},
      {"rx.segment_s", self_of("rx.segment"), "s"},
      {"rx.slot_map_s", self_of("rx.slot_map"), "s"},
      {"rx.bands", c("rx.bands"), "count"},
      {"rx.observations", c("rx.observations") + c("pd.observations"), "count"},
      {"rx.parse_s", self_of("rx.parse") + self_of("rx.finish") + self_of("rx.init"), "s"},
      {"rx.parse_ms_p99", percentile(tracer.durations_ms("rx.parse"), 0.99), "ms"},
      {"rx.slots_scanned", c("rx.slots_scanned"), "count"},
      {"rx.scan_ratio", ratio(c("rx.slots_scanned"), c("rx.slots_ingested")), "ratio"},
      {"rx.packets_ok", c("rx.packets_ok"), "count"},
      {"rx.packets_failed", c("rx.packets_failed"), "count"},
      {"rx.classify_s", self_of("rx.classify"), "s"},
      {"rx.classify_ns_per_symbol", 1e9 * ratio(self_of("rx.classify"), c("rx.classified")),
       "ns"},
      {"eq.decisions", c("eq.decisions"), "count"},
      {"eq.fallback_ratio", ratio(c("eq.fallbacks"), c("eq.decisions")), "ratio"},
      {"eq.retrains", c("eq.retrains"), "count"},
      {"rs.corrected_errors", c("rs.corrected_errors"), "count"},
      {"rs.corrected_erasures", c("rs.corrected_erasures"), "count"},
      {"rs.erased_slots", c("rs.erased_slots"), "count"},
      {"pd.source_s", layer_self("pd"), "s"},
      {"pd.observations", c("pd.observations"), "count"},
      {"tx.transmit_s", layer_self("tx"), "s"},
      {"tx.slots", c("tx.slots"), "count"},
      {"pipeline.self_s", layer_self("pipeline"), "s"},
      {"pipeline.refills", c("pipeline.refills"), "count"},
      {"pipeline.pool_hits", c("pipeline.pool_hits"), "count"},
      {"pipeline.pool_misses", c("pipeline.pool_misses"), "count"},
      {"pipeline.peak_frames", c("pipeline.peak_frames"), "count"},
      {"runtime.speedup", ratio(single_unit_s, pinned_s), "ratio"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead", overhead, "ratio"},
      {"ser", ser_of(pinned), "ratio"},
      {"fail_ratio", fail_ratio, "ratio"},
  };
}

void print_result(bool correct, const Checks& checks, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<long long>(checks.attempted, 1)) +
                     ", \"failed\": " + std::to_string(checks.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  const unsigned hardware = std::max(std::thread::hardware_concurrency(), 1U);
  const unsigned threads = std::min(kMaxThreads, hardware);
  pin_threads(threads);
  std::printf("{\"provenance\": %s}\n", provenance_json(args, *workload, threads).c_str());
  std::fflush(stdout);

  Checks checks;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace == 0 ? run_untraced(args, *workload, threads, checks)
                              : run_traced(args, *workload, threads, checks);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    checks.notes.push_back(std::string("exception: ") + error.what());
    checks.failed = std::max<long long>(checks.attempted, 1);
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-26s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& note : checks.notes) std::printf("CHECK FAILED: %s\n", note.c_str());
  const bool correct = checks.failed == 0 && !metrics.empty();
  print_result(correct, checks, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
