#pragma once
// The one sequential search loop behind every blocking driver (BayesOpt,
// AdditiveBo, DropoutBo, Rembo, RandomSearch, GridSearch, and the
// PlanExecutor's blocking path): ask a proposer for the next configuration,
// measure it, record it, repeat until the budget is spent.
//
// Drivers differ only in their proposer. The loop owns evaluation: every
// call goes through robust::RobustMeasurer, so a crash, a timeout, an
// invalid configuration or a non-finite value is classified and recorded
// as NaN with its outcome instead of aborting the search. Proposers see
// those failures in the evaluation list and keep them out of their
// surrogates.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "robust/measure.hpp"
#include "search/eval_db.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::search {

/// The next configuration to evaluate, given every evaluation so far in
/// order (failures included). nullopt ends the search early.
using Proposer = std::function<std::optional<Config>(const std::vector<Evaluation>& evals)>;

/// Evaluate proposals until `max_evals` are recorded or the proposer returns
/// nullopt. Each step runs under a "<method>.iteration" span holding the
/// proposal and its "eval" span, and counts evaluations started, outcomes
/// and evaluation seconds. `db`, when given, receives every evaluation (it
/// is written, never read).
SearchResult drive(Objective& objective, const Proposer& propose, std::size_t max_evals,
                   const robust::MeasureOptions& measure, obs::Telemetry* telemetry,
                   std::string method, EvalDb* db = nullptr);

/// True when `config` equals an evaluated configuration (1e-9 relative).
bool already_evaluated(const std::vector<Evaluation>& evals, const Config& config);

}  // namespace tunekit::search
