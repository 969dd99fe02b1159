#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include <sys/resource.h>
#include <unistd.h>

namespace stackbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double windowed_p99(const std::vector<double>& values, std::size_t window) {
  const std::size_t windows = window == 0 ? 0 : values.size() / window;
  if (windows < 3) return quantile(values, 0.99);
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * window);
    // The last window also takes the remainder.
    const auto last = w + 1 == windows ? values.end() : first + static_cast<std::ptrdiff_t>(window);
    p99s.push_back(quantile(std::vector<double>(first, last), 0.99));
  }
  return median(p99s);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value, const std::string& unit) {
  layers_[name] = Metric{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) failures_.push_back(what);
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::detail(const std::string& key, const std::string& json_value) {
  details_[key] = json_value;
}

void Report::detail(const std::string& key, double value) { details_[key] = json_number(value); }

std::string Report::metrics_json(bool per_layer) const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : per_layer ? layers_ : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string Report::details_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : details_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + value;
  }
  out += std::string(first ? "" : ", ") + "\"check_failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + json_string(failures_[i]);
  }
  return out + "]}";
}

std::string Report::result_json(bool per_layer) const {
  return std::string("{\"correct\": ") + (correct() && failed() == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted(), 1)) +
         ", \"failed\": " + std::to_string(failed()) + ", \"metrics\": " + metrics_json(per_layer) + "}";
}

SpanLog::SpanLog(bool enabled) {
  if (!enabled) return;
  tracer_ = std::make_unique<obs::Tracer>(std::size_t{1} << 19);
  registry_ = std::make_unique<obs::MetricsRegistry>();
}

std::uint64_t SpanLog::record(const std::string& name, const std::string& layer,
                              std::uint64_t parent, Clock::time_point start,
                              Clock::time_point end) {
  if (!tracer_) return 0;
  return tracer_->record(name, layer, parent, start, end - start);
}

std::uint64_t SpanLog::reserve_id() { return tracer_ ? tracer_->allocate_ids(1) : 0; }

void SpanLog::record_with_id(std::uint64_t id, const std::string& name,
                             const std::string& layer, std::uint64_t parent,
                             Clock::time_point start, Clock::time_point end) {
  if (!tracer_) return;
  std::vector<obs::SpanRecord> batch(1);
  batch[0].id = id;
  batch[0].parent = parent;
  batch[0].name = name;
  batch[0].category = layer;
  batch[0].start = std::chrono::duration_cast<std::chrono::nanoseconds>(start - tracer_->epoch());
  batch[0].duration = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start);
  tracer_->record_all(batch);
}

std::map<std::string, double> SpanLog::write_and_attribute(const std::string& path) {
  std::map<std::string, double> self_ms;
  if (!tracer_) return self_ms;
  std::vector<obs::SpanRecord> spans = tracer_->snapshot();
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) { return a.start < b.start; });

  // Program spans without a parent: adopt the innermost benchmark span on
  // the same thread that contains them (spans sorted by start, so a stack
  // walk per thread finds it).
  std::unordered_map<std::uint32_t, std::vector<const obs::SpanRecord*>> open;
  for (auto& span : spans) {
    auto& stack = open[span.thread];
    const auto end_of = [](const obs::SpanRecord* s) { return s->start + s->duration; };
    while (!stack.empty() && end_of(stack.back()) < span.start + span.duration) stack.pop_back();
    const bool program_span = span.name.rfind("ds_scan:", 0) == 0;
    if (program_span && span.parent == 0 && !stack.empty()) span.parent = stack.back()->id;
    if (!program_span) stack.push_back(&span);
  }

  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && index.count(spans[i].parent)) {
      children[spans[i].parent].push_back(i);
    }
  }
  const auto root_of = [&](std::uint64_t id) {
    for (int depth = 0; depth < 64; ++depth) {
      const auto it = index.find(id);
      if (it == index.end() || spans[it->second].parent == 0 ||
          !index.count(spans[it->second].parent)) {
        return id;
      }
      id = spans[it->second].parent;
    }
    return id;
  };

  std::ofstream out(path);
  for (const auto& span : spans) {
    const double start_us = static_cast<double>(span.start.count()) / 1e3;
    const double end_us = static_cast<double>((span.start + span.duration).count()) / 1e3;
    out << "{\"name\": " << json_string(span.name) << ", \"layer\": " << json_string(span.category)
        << ", \"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"trace\": " << root_of(span.id) << ", \"start_us\": " << json_number(start_us)
        << ", \"end_us\": " << json_number(end_us) << ", \"thread\": " << span.thread << "}\n";

    // Self time: the span minus the union of its children's intervals,
    // clipped to the span (pipelined children may start on another thread).
    const std::int64_t s0 = span.start.count();
    const std::int64_t s1 = s0 + span.duration.count();
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const std::int64_t c0 = std::max(s0, static_cast<std::int64_t>(spans[c].start.count()));
        const std::int64_t c1 = std::min(
            s1, static_cast<std::int64_t>((spans[c].start + spans[c].duration).count()));
        if (c1 > c0) covered.emplace_back(c0, c1);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = s0;
    for (const auto& [c0, c1] : covered) {
      const std::int64_t from = std::max(c0, reach);
      if (c1 > from) covered_ns += c1 - from;
      reach = std::max(reach, c1);
    }
    self_ms[span.category] += static_cast<double>(span.duration.count() - covered_ns) / 1e6;
  }
  return self_ms;
}

std::uint64_t counter_total(const obs::MetricsRegistry& registry, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& m : registry.snapshot().metrics) {
    if (m.name == name && m.kind == obs::MetricKind::kCounter) total += m.counter_value;
  }
  return total;
}

ClientPriority::ClientPriority() {
  previous_ = ::getpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()));
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), -10);
}

ClientPriority::~ClientPriority() {
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), previous_);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h = mix64(mix64(mix64(seed) ^ a) ^ b);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace stackbench
