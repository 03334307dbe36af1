#include "obs/export.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <unordered_map>

namespace tunekit::obs {

namespace {

// Prometheus float formatting: shortest round-trippable representation is
// overkill here; %.17g round-trips doubles and %g keeps integers clean.
std::string format_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  std::sscanf(buf, "%lg", &parsed);
  if (parsed == v) {
    // Try a shorter form that still round-trips.
    char short_buf[64];
    std::snprintf(short_buf, sizeof(short_buf), "%g", v);
    std::sscanf(short_buf, "%lg", &parsed);
    if (parsed == v) return short_buf;
  }
  return buf;
}

// OpenMetrics exemplar suffix for one bucket line, or "" when none recorded.
std::string exemplar_suffix(const Histogram& histogram, std::size_t bucket) {
  const Histogram::Exemplar ex = histogram.exemplar(bucket);
  if (ex.trace_hex.empty()) return "";
  return " # {trace_id=\"" + escape_label_value(ex.trace_hex) + "\"} " +
         format_number(ex.value);
}

void append_histogram(std::ostringstream& out, const std::string& raw_name,
                      const std::string& help, const Histogram& histogram) {
  const std::string name = sanitize_metric_name(raw_name);
  if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << " histogram\n";
  const auto& bounds = histogram.bounds();
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += histogram.bucket_count(i);
    out << name << "_bucket{le=\"" << format_number(bounds[i]) << "\"} " << cumulative
        << exemplar_suffix(histogram, i) << '\n';
  }
  cumulative += histogram.bucket_count(bounds.size());
  out << name << "_bucket{le=\"+Inf\"} " << cumulative
      << exemplar_suffix(histogram, bounds.size()) << '\n';
  out << name << "_sum " << format_number(histogram.sum()) << '\n';
  out << name << "_count " << histogram.count() << '\n';
}

}  // namespace

std::string sanitize_metric_name(std::string_view name) {
  if (name.empty()) return "_";
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

json::Value chrome_trace(const Telemetry& telemetry) {
  const std::int64_t self_pid = static_cast<std::int64_t>(::getpid());
  json::Array events;
  for (const SpanRecord& span : telemetry.spans()) {
    json::Object event;
    event["name"] = span.name;
    event["cat"] = span.category.empty() ? std::string("tunekit") : span.category;
    event["ph"] = "X";
    // trace_event timestamps are microseconds; keep sub-microsecond precision
    // as a fraction (Perfetto accepts non-integer ts/dur).
    event["ts"] = static_cast<double>(span.start_ns) / 1e3;
    event["dur"] = static_cast<double>(span.dur_ns) / 1e3;
    event["pid"] = span.pid != 0 ? span.pid : self_pid;
    event["tid"] = static_cast<std::size_t>(span.tid);
    json::Object args;
    // Hex strings, not numbers: span ids use the full 64 bits and a JSON
    // double would collide distinct ids past 2^53.
    args["span"] = span_id_hex(span.id);
    if (span.parent != 0) args["parent"] = span_id_hex(span.parent);
    if (span.trace.valid()) args["trace_id"] = trace_id_hex(span.trace);
    event["args"] = json::Value(std::move(args));
    events.push_back(json::Value(std::move(event)));
  }
  json::Object doc;
  doc["traceEvents"] = json::Value(std::move(events));
  doc["displayTimeUnit"] = "ms";
  if (telemetry.dropped_spans() > 0) {
    doc["tunekit_dropped_spans"] = static_cast<std::size_t>(telemetry.dropped_spans());
  }
  return json::Value(std::move(doc));
}

void write_chrome_trace(const Telemetry& telemetry, const std::string& path) {
  json::save_atomic(path, chrome_trace(telemetry), /*indent=*/-1);
}

std::string prometheus_text(const MetricsRegistry& metrics) {
  std::ostringstream out;
  for (const auto& [raw_name, counter] : metrics.counters()) {
    const std::string name = sanitize_metric_name(raw_name);
    const std::string help = metrics.help(raw_name);
    if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
    out << "# TYPE " << name << " counter\n";
    out << name << ' ' << counter->value() << '\n';
  }
  for (const auto& [raw_name, gauge] : metrics.gauges()) {
    const std::string name = sanitize_metric_name(raw_name);
    const std::string help = metrics.help(raw_name);
    if (!help.empty()) out << "# HELP " << name << ' ' << help << '\n';
    out << "# TYPE " << name << " gauge\n";
    out << name << ' ' << format_number(gauge->value()) << '\n';
  }
  for (const auto& [raw_name, histogram] : metrics.histograms()) {
    append_histogram(out, raw_name, metrics.help(raw_name), *histogram);
  }
  return out.str();
}

std::string prometheus_text(const Telemetry& telemetry) {
  std::string out = prometheus_text(telemetry.metrics());
  // The span-buffer drop counter lives on Telemetry, not in the registry —
  // emit it here so saturation of the trace buffer is visible to scrapes.
  out += "# HELP ";
  out += metric::kDroppedSpans;
  out += " Spans discarded because the bounded trace buffer was full.\n# TYPE ";
  out += metric::kDroppedSpans;
  out += " counter\n";
  out += metric::kDroppedSpans;
  out += ' ';
  out += std::to_string(telemetry.dropped_spans());
  out += '\n';
  return out;
}

void write_prometheus_text(const MetricsRegistry& metrics, const std::string& path) {
  // Reuse the JSON module's atomic-write behavior by writing via a temp file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + tmp + " for writing");
  const std::string text = prometheus_text(metrics);
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("failed writing metrics to " + path);
  }
}

ScrapedHistogram parse_prometheus_histogram(const std::string& text,
                                            const std::string& name) {
  ScrapedHistogram h;
  const std::string bucket_prefix = name + "_bucket{le=\"";
  const std::string count_prefix = name + "_count ";
  const std::string sum_prefix = name + "_sum ";
  double cumulative = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    try {
      if (line.rfind(bucket_prefix, 0) == 0) {
        const std::size_t close = line.find('"', bucket_prefix.size());
        if (close == std::string::npos) continue;
        const std::string le =
            line.substr(bucket_prefix.size(), close - bucket_prefix.size());
        const std::size_t space = line.find(' ', close);
        if (space == std::string::npos) continue;
        // std::stod stops at the first space, before any exemplar suffix.
        const double cum = std::stod(line.substr(space + 1));
        if (le != "+Inf") h.bounds.push_back(std::stod(le));
        h.counts.push_back(cum - cumulative);
        cumulative = cum;
      } else if (line.rfind(count_prefix, 0) == 0) {
        h.count = std::stod(line.substr(count_prefix.size()));
      } else if (line.rfind(sum_prefix, 0) == 0) {
        h.sum = std::stod(line.substr(sum_prefix.size()));
      }
    } catch (const std::exception&) {
      continue;  // malformed line; skip rather than lose the whole scrape
    }
  }
  return h;
}

json::Value metrics_to_json(const MetricsRegistry& metrics) {
  json::Object counters;
  for (const auto& [name, counter] : metrics.counters()) {
    counters[name] = static_cast<std::size_t>(counter->value());
  }
  json::Object gauges;
  for (const auto& [name, gauge] : metrics.gauges()) {
    gauges[name] = gauge->value();
  }
  json::Object histograms;
  for (const auto& [name, histogram] : metrics.histograms()) {
    json::Array bounds;
    for (double b : histogram->bounds()) bounds.push_back(b);
    json::Array counts;
    for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
      counts.push_back(static_cast<std::size_t>(histogram->bucket_count(i)));
    }
    json::Object h;
    h["bounds"] = json::Value(std::move(bounds));
    h["counts"] = json::Value(std::move(counts));
    h["sum"] = histogram->sum();
    h["count"] = static_cast<std::size_t>(histogram->count());
    histograms[name] = json::Value(std::move(h));
  }
  json::Object doc;
  doc["counters"] = json::Value(std::move(counters));
  doc["gauges"] = json::Value(std::move(gauges));
  doc["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(doc));
}

json::Value traces_json(const Telemetry& telemetry, std::size_t max_traces) {
  const std::vector<SpanRecord> spans = telemetry.spans();
  const std::vector<SpanEvent> events = telemetry.events();

  // Group finished spans by trace id, remembering arrival order so "recent"
  // means "trace whose spans finished last".
  struct Tree {
    std::vector<const SpanRecord*> spans;
    std::size_t last_seen = 0;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Tree> trees;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (!span.trace.valid()) continue;
    Tree& tree = trees[{span.trace.hi, span.trace.lo}];
    tree.spans.push_back(&span);
    tree.last_seen = i;
  }

  std::unordered_map<std::uint64_t, std::vector<const SpanEvent*>> events_by_span;
  for (const SpanEvent& event : events) events_by_span[event.span].push_back(&event);

  // Newest-first ordering by the index of each trace's last finished span.
  std::vector<std::pair<std::size_t, const decltype(trees)::value_type*>> order;
  order.reserve(trees.size());
  for (const auto& entry : trees) order.emplace_back(entry.second.last_seen, &entry);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  json::Array out_traces;
  for (const auto& [last_seen, entry] : order) {
    (void)last_seen;
    if (out_traces.size() >= max_traces) break;
    const Tree& tree = entry->second;
    // A tree is complete when its root (a span whose parent is not in the
    // tree) has finished; open roots are simply absent from spans().
    std::unordered_map<std::uint64_t, bool> in_tree;
    for (const SpanRecord* span : tree.spans) in_tree[span->id] = true;
    const SpanRecord* root = nullptr;
    std::size_t root_count = 0;
    for (const SpanRecord* span : tree.spans) {
      if (span->parent == 0 || !in_tree.count(span->parent)) {
        root = span;
        ++root_count;
      }
    }
    if (root == nullptr || root_count != 1) continue;  // incomplete or forest

    json::Array out_spans;
    for (const SpanRecord* span : tree.spans) {
      json::Object s;
      s["id"] = span_id_hex(span->id);
      if (span->parent != 0) s["parent"] = span_id_hex(span->parent);
      s["name"] = span->name;
      if (!span->category.empty()) s["cat"] = span->category;
      s["start_ns"] = static_cast<std::size_t>(span->start_ns);
      s["dur_ns"] = static_cast<std::size_t>(span->dur_ns);
      if (span->pid != 0) s["pid"] = span->pid;
      const auto ev_it = events_by_span.find(span->id);
      if (ev_it != events_by_span.end()) {
        json::Array out_events;
        for (const SpanEvent* event : ev_it->second) {
          json::Object e;
          e["name"] = event->name;
          if (!event->detail.empty()) e["detail"] = event->detail;
          e["t_ns"] = static_cast<std::size_t>(event->t_ns);
          out_events.push_back(json::Value(std::move(e)));
        }
        s["events"] = json::Value(std::move(out_events));
      }
      out_spans.push_back(json::Value(std::move(s)));
    }
    json::Object t;
    t["trace_id"] = trace_id_hex(root->trace);
    t["root"] = root->name;
    t["start_ns"] = static_cast<std::size_t>(root->start_ns);
    t["dur_ns"] = static_cast<std::size_t>(root->dur_ns);
    t["span_count"] = out_spans.size();
    t["spans"] = json::Value(std::move(out_spans));
    out_traces.push_back(json::Value(std::move(t)));
  }

  json::Object doc;
  doc["traces"] = json::Value(std::move(out_traces));
  doc["dropped_spans"] = static_cast<std::size_t>(telemetry.dropped_spans());
  return json::Value(std::move(doc));
}

}  // namespace tunekit::obs
