#pragma once
// Telemetry exporters: Chrome trace_event JSON (open in chrome://tracing or
// https://ui.perfetto.dev), Prometheus text exposition, a JSON metrics
// snapshot (the shape journaled into SessionStore "metrics" records), and a
// trace-tree JSON view (what GET /v1/debug/traces serves).

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/telemetry.hpp"

namespace tunekit::obs {

/// Chrome trace_event "JSON object format": {"traceEvents": [...]} where every
/// span becomes a complete "X" event with microsecond ts/dur. Worker-side
/// spans carry their worker pid; supervisor spans use the supervisor pid.
json::Value chrome_trace(const Telemetry& telemetry);

/// Write chrome_trace() to `path` (atomically, via a temp file + rename).
void write_chrome_trace(const Telemetry& telemetry, const std::string& path);

/// Prometheus text exposition format (# HELP / # TYPE, histogram _bucket
/// cumulative counts with le labels, _sum, _count). Metric names are
/// sanitized, label values escaped, and histogram buckets carry OpenMetrics
/// exemplars ("# {trace_id=\"...\"} v") when one was recorded.
std::string prometheus_text(const MetricsRegistry& metrics);
/// Same, plus telemetry-level series the registry cannot see (the span
/// buffer's tunekit_dropped_spans_total).
std::string prometheus_text(const Telemetry& telemetry);

void write_prometheus_text(const MetricsRegistry& metrics, const std::string& path);

/// Valid Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*): invalid chars
/// become '_', a leading digit gets a '_' prefix, empty becomes "_".
std::string sanitize_metric_name(std::string_view name);

/// Escape a label value for the text exposition format: backslash, double
/// quote, and newline become \\, \", and \n.
std::string escape_label_value(std::string_view value);

/// One histogram read back from Prometheus text exposition — what
/// `tunekit_cli top` scrapes from /metrics. Malformed lines and OpenMetrics
/// exemplar suffixes are skipped.
struct ScrapedHistogram {
  std::vector<double> bounds;  ///< finite upper bounds, ascending
  std::vector<double> counts;  ///< per bucket (not cumulative); last = +Inf
  double count = 0.0;          ///< the _count sample
  double sum = 0.0;            ///< the _sum sample
  /// The same estimate the exporting Histogram::quantile gives.
  double quantile(double q) const { return bucket_quantile(bounds, counts, q); }
};
ScrapedHistogram parse_prometheus_histogram(const std::string& text,
                                            const std::string& name);

/// {"counters": {...}, "gauges": {...}, "histograms": {name: {"bounds": [...],
/// "counts": [...], "sum": s, "count": n}}}. Counts has bounds.size()+1
/// entries (last = overflow bucket).
json::Value metrics_to_json(const MetricsRegistry& metrics);

/// Recent completed trace trees, newest first:
/// {"traces": [{"trace_id": hex, "root": name-of-root, "start_ns": n,
///   "dur_ns": n, "spans": [{id, parent, name, cat, start_ns, dur_ns, pid,
///   "events": [...]}...]}], "dropped_spans": n}.
/// A trace is "completed" once its spans are in the done buffer; trees still
/// missing their root (open spans) are skipped. At most `max_traces` trees.
json::Value traces_json(const Telemetry& telemetry, std::size_t max_traces = 32);

}  // namespace tunekit::obs
