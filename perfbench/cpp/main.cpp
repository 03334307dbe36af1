// tk_perfbench: one workload run of the TuneKit benchmark.
//
//   tk_perfbench --workload service_bo|service_journal|methodology
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//                --spec BENCHMARK.json
//
// Prints the environment record, then as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1, by the names and
// units the --spec file declares. The full record
// (environment, every metric, output-check failures, details) is written to
// DIR/result.json, and a traced run leaves its span tree in DIR/trace.json.
// Exits 1 when an output check failed, 2 when the run could not be made.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "workloads.hpp"

namespace {

using tunekit::json::Value;

/// A reported metric and its unit, as BENCHMARK.json declares them.
struct Declared {
  std::string name;
  std::string unit;
};

/// The `key` list ("end_to_end" or "per_layer") of BENCHMARK.json.
std::vector<Declared> declared(const Value& spec, const std::string& key) {
  std::vector<Declared> out;
  for (const Value& m : spec.at(key).as_array()) {
    out.push_back({m.at("name").as_string(), m.at("unit").as_string()});
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: tk_perfbench --workload service_bo|service_journal|methodology "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --spec BENCHMARK.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string spec_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--work-dir") options.work_dir = value;
      else if (flag == "--spec") spec_path = value;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || spec_path.empty() ||
      argc % 2 == 0) {
    return usage();
  }
  std::vector<Declared> end_to_end, per_layer;
  try {
    const Value spec = tunekit::json::load(spec_path);
    end_to_end = declared(spec, "end_to_end");
    per_layer = declared(spec, "per_layer");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tk_perfbench: %s: %s\n", spec_path.c_str(), e.what());
    return 2;
  }
  // Library progress logging would interleave with the result line.
  tunekit::set_log_level(tunekit::LogLevel::Error);

  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "service_bo") {
      perfbench::run_service_bo(options, result);
    } else if (options.workload == "service_journal") {
      perfbench::run_service_journal(options, result);
    } else if (options.workload == "methodology") {
      perfbench::run_methodology(options, result);
    } else {
      return usage();
    }
    if (options.trace) perfbench::run_gp_probe(options.seed, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tk_perfbench: %s\n", e.what());
    return 2;
  }
  result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");

  tunekit::json::Object printed;
  // A per-layer metric the workload does not exercise reads 0.
  auto emit = [&](const Declared& d, bool must_exist) {
    double value = 0.0;
    const auto it = result.metrics.find(d.name);
    if (it == result.metrics.end()) {
      result.check(!must_exist, d.name + " was not measured");
    } else {
      result.check(it->second.unit == d.unit,
                   d.name + " measured in " + it->second.unit + ", declared " + d.unit);
      result.check(std::isfinite(it->second.value), d.name + " is not finite");
      if (std::isfinite(it->second.value)) value = it->second.value;
    }
    printed[d.name] =
        Value(tunekit::json::Object{{"value", Value(value)}, {"unit", Value(d.unit)}});
  };
  if (options.trace) {
    for (const Declared& d : per_layer) emit(d, false);
  } else {
    for (const Declared& d : end_to_end) emit(d, true);
  }

  const Value env = perfbench::environment(options);
  tunekit::json::Object all;
  for (const auto& [name, m] : result.metrics) {
    all[name] = Value(tunekit::json::Object{{"value", Value(m.value)}, {"unit", Value(m.unit)}});
  }
  tunekit::json::Array failures;
  for (const auto& f : result.check_failures) failures.push_back(Value(f));
  tunekit::json::Object record;
  record["environment"] = env;
  record["correct"] = Value(result.correct);
  record["check_failures"] = Value(std::move(failures));
  record["metrics"] = Value(std::move(all));
  record["details"] = Value(std::move(result.details));
  std::ofstream(std::filesystem::path(options.work_dir) / "result.json")
      << Value(std::move(record)).dump(2) << "\n";

  for (const auto& f : result.check_failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  tunekit::json::Object line;
  line["correct"] = Value(result.correct);
  line["attempted"] = Value(static_cast<std::size_t>(result.attempted + result.checks));
  line["failed"] = Value(static_cast<std::size_t>(result.failed + result.checks_failed));
  line["metrics"] = Value(std::move(printed));
  std::cout << "perfbench: environment " << env.dump() << "\n";
  std::cout << Value(std::move(line)).dump() << std::endl;
  return result.correct ? 0 : 1;
}
