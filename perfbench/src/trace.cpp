#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(std::string_view name) {
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? std::string{} : std::string(name.substr(0, dot));
}

Tracer::Tracer() { spans_.reserve(1 << 16); }

int Tracer::intern(std::string_view name) {
  const auto found = ids_.find(std::string(name));
  if (found != ids_.end()) return found->second;
  const int id = static_cast<int>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

int Tracer::open(std::string_view name) {
  Span span;
  span.name = intern(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.trial = trial_;
  const int index = static_cast<int>(spans_.size());
  stack_.push_back(index);
  // Stamp last, so the interning and bookkeeping above fall outside the
  // span (they are charged to the parent instead).
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::count_max(const std::string& name, double value) {
  double& slot = counters_[name];
  slot = std::max(slot, value);
}

double Tracer::counter(const std::string& name) const {
  const auto found = counters_.find(name);
  return found == counters_.end() ? 0.0 : found->second;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[names_[static_cast<std::size_t>(span.name)]] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const auto found = ids_.find(std::string(name));
  if (found == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == found->second) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path, const std::string& header) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{%s,\n\"names\": [", header.c_str());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(file, "%s\"%s\"", i == 0 ? "" : ", ", names_[i].c_str());
  }
  std::fprintf(file, "],\n\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::fprintf(file, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  // One span per row: [name, parent, trial, start_ns, end_ns], times
  // relative to the first span's start.
  std::fprintf(file, "},\n\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "[%d,%d,%lld,%lld,%lld]%s\n", span.name, span.parent, span.trial,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
