#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

SeededObjective::SeededObjective(std::uint64_t seed) {
  InputRng rng(seed * 0x2545f4914f6cdd1dull + 0x51ed);
  for (int i = 0; i < 8; ++i) {
    Param p;
    p.integer = i >= 6;
    char name[8];
    std::snprintf(name, sizeof name, "%c%d", p.integer ? 'n' : 'x', i);
    p.name = name;
    if (p.integer) {
      p.lo = 1.0;
      p.hi = std::round(rng.uniform(64.0, 512.0));
    } else {
      const double half = rng.uniform(1.0, 50.0);
      p.lo = -half;
      p.hi = half;
    }
    p.center = rng.uniform(0.15, 0.85);
    p.weight = rng.uniform(0.5, 2.0);
    // The default sits 0.4 (unit) away from the optimum, on the roomier side.
    double u = p.center > 0.5 ? p.center - 0.4 : p.center + 0.4;
    double v = p.lo + u * (p.hi - p.lo);
    if (p.integer) v = std::round(v);
    p.def = v;
    params_.push_back(p);
  }
  // Two interacting pairs, so the online structure learner has couplings to
  // find: a seed-drawn permutation of the eight parameters, first four taken.
  std::vector<std::size_t> order = {0, 1, 2, 3, 4, 5, 6, 7};
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next() % (i + 1)]);
  }
  pairs_ = {{order[0], order[1]}, {order[2], order[3]}};
  std::vector<double> unit;
  for (const auto& p : params_) unit.push_back((p.def - p.lo) / (p.hi - p.lo));
  scale_ = kDefaultExcess / raw_excess(unit);
}

json::Value SeededObjective::space_spec() const {
  json::Array params;
  for (const auto& p : params_) {
    json::Object o;
    o["name"] = json::Value(p.name);
    o["kind"] = json::Value(std::string(p.integer ? "integer" : "real"));
    o["lo"] = json::Value(p.lo);
    o["hi"] = json::Value(p.hi);
    o["default"] = json::Value(p.def);
    params.push_back(json::Value(std::move(o)));
  }
  json::Object spec;
  spec["params"] = json::Value(std::move(params));
  return json::Value(std::move(spec));
}

double SeededObjective::raw_excess(const std::vector<double>& unit) const {
  double acc = 0.0;
  std::vector<double> d(unit.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    d[i] = unit[i] - params_[i].center;
    acc += params_[i].weight * d[i] * d[i];
  }
  for (const auto& [a, b] : pairs_) acc += 8.0 * std::abs(d[a] * d[b]);
  return acc;
}

double SeededObjective::evaluate(const std::map<std::string, double>& named) const {
  std::vector<double> unit;
  unit.reserve(params_.size());
  for (const auto& p : params_) {
    const auto it = named.find(p.name);
    if (it == named.end()) throw std::runtime_error("config lacks " + p.name);
    unit.push_back((it->second - p.lo) / (p.hi - p.lo));
  }
  return 1.0 + scale_ * raw_excess(unit);
}

}  // namespace perfbench
