#include "search/drive.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"

namespace tunekit::search {

SearchResult drive(Objective& objective, const Proposer& propose, std::size_t max_evals,
                   const robust::MeasureOptions& measure, obs::Telemetry* telemetry,
                   std::string method, EvalDb* db) {
  Stopwatch watch;
  const robust::RobustMeasurer measurer(measure);
  const std::string step = method + ".iteration";
  SearchResult result;
  result.method = std::move(method);
  std::vector<Evaluation> evals;
  while (evals.size() < max_evals) {
    obs::ScopedSpan step_span(telemetry, step);
    std::optional<Config> config = propose(evals);
    if (!config) break;

    const robust::Measurement m = measurer.measure(objective, *config, telemetry);
    if (robust::is_failure(m.outcome)) {
      log_warn(result.method, ": evaluation failed (", m.error, "); recording as ",
               robust::to_string(m.outcome));
    }

    Evaluation e{std::move(*config), m.value, m.seconds, m.outcome, m.dispersion};
    if (db != nullptr) db->record(e);
    result.record(e.config, e.value);
    evals.push_back(std::move(e));
  }
  result.seconds = watch.seconds();
  return result;
}

bool already_evaluated(const std::vector<Evaluation>& evals, const Config& config) {
  return std::any_of(evals.begin(), evals.end(), [&](const Evaluation& e) {
    if (e.config.size() != config.size()) return false;
    for (std::size_t i = 0; i < config.size(); ++i) {
      if (std::abs(e.config[i] - config[i]) > 1e-9 * std::max(1.0, std::abs(e.config[i]))) {
        return false;
      }
    }
    return true;
  });
}

}  // namespace tunekit::search
