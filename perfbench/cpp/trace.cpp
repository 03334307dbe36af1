// Traced-run summary: per-layer self time (span duration minus the union of
// its children), how much of the root spans the program's own child spans
// cover, and the span tree as a Chrome trace_event file.

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tunekit::obs::SpanRecord;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The module a span belongs to.
std::string layer_of(const std::string& name) {
  if (starts_with(name, "client.")) return "client";
  if (starts_with(name, "net.")) return "net";
  // RestApi::handle: the session, journal and surrogate work inside it has
  // no spans of its own yet, so it all shows as this span's self time.
  if (starts_with(name, "server.")) return "server";
  if (name == "phase.sensitivity" || name == "phase.importance") return "stats";
  if (name == "phase.partition") return "graph";
  if (starts_with(name, "methodology.") || starts_with(name, "phase.") ||
      starts_with(name, "search.")) {
    return "core";
  }
  if (starts_with(name, "scheduler.")) return "service";
  return name.substr(0, name.find('.'));
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
    } else {
      if (open) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void summarize_trace(const tunekit::obs::Telemetry& telemetry,
                     const std::vector<std::string>& root_prefixes,
                     const std::string& chrome_path, RunResult& result) {
  const std::vector<SpanRecord> spans = telemetry.spans();
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  auto child_cover = [&](const SpanRecord& s) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (std::size_t c : it->second) {
        iv.emplace_back(spans[c].start_ns, spans[c].start_ns + spans[c].dur_ns);
      }
    }
    return covered(std::move(iv), s.start_ns, s.start_ns + s.dur_ns);
  };

  std::map<std::string, double> self_s;
  std::uint64_t root_ns = 0, root_covered_ns = 0;
  for (const auto& s : spans) {
    const std::uint64_t cov = child_cover(s);
    self_s[layer_of(s.name)] += static_cast<double>(s.dur_ns - std::min(cov, s.dur_ns)) / 1e9;
    const bool root = std::any_of(root_prefixes.begin(), root_prefixes.end(),
                                  [&](const std::string& p) { return starts_with(s.name, p.c_str()); });
    if (root) {
      root_ns += s.dur_ns;
      root_covered_ns += cov;
    }
  }
  const double coverage =
      root_ns > 0 ? static_cast<double>(root_covered_ns) / static_cast<double>(root_ns) : 0.0;
  result.set("obs.span_coverage", coverage, "ratio");

  tunekit::json::Object self;
  std::fprintf(stderr, "perfbench: self time by layer (traced run, %zu spans):\n",
               spans.size());
  for (const auto& [layer, sec] : self_s) {
    std::fprintf(stderr, "  %-10s %10.4f s\n", layer.c_str(), sec);
    self[layer] = tunekit::json::Value(sec);
  }
  std::fprintf(stderr, "  span coverage of the root spans by their children: %.4f\n", coverage);
  tunekit::json::Object trace;
  trace["self_s"] = tunekit::json::Value(std::move(self));
  trace["spans"] = tunekit::json::Value(spans.size());
  trace["span_coverage"] = tunekit::json::Value(coverage);
  trace["chrome_trace"] = tunekit::json::Value(chrome_path);
  result.details["trace"] = tunekit::json::Value(std::move(trace));

  try {
    tunekit::obs::write_chrome_trace(telemetry, chrome_path);
  } catch (const std::exception& e) {
    result.check(false, "cannot write " + chrome_path + ": " + e.what());
  }
}

}  // namespace perfbench
