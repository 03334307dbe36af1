#include "fleet/registry.hpp"

#include <algorithm>

#include "common/backoff.hpp"

namespace tunekit::fleet {

namespace {

/// Re-admission backoff: base * 2^(deaths-1), capped and jittered.
double backoff_s(const RegistryOptions& options, const std::string& id,
                 std::size_t deaths) {
  return common::jittered_backoff_s(options.readmit_base_s, options.readmit_max_s,
                                    std::min<std::size_t>(deaths - 1, 20), id, deaths);
}

}  // namespace

NodeRegistry::Admit NodeRegistry::admit(const std::string& id,
                                        std::size_t slots, double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(id);
  if (it != nodes_.end()) {
    NodeInfo& node = it->second;
    if (node.alive) {
      return {false, 0.0, "node id '" + id + "' is already registered"};
    }
    if (now_s < node.readmit_at_s) {
      return {false, node.readmit_at_s - now_s,
              "node '" + id + "' is quarantined after " +
                  std::to_string(node.deaths) + " connection losses"};
    }
    node.alive = true;
    node.slots = std::max<std::size_t>(1, slots);
    node.busy = 0;
    node.last_seen_s = now_s;
    return {true, 0.0, ""};
  }
  NodeInfo node;
  node.id = id;
  node.slots = std::max<std::size_t>(1, slots);
  node.alive = true;
  node.last_seen_s = now_s;
  nodes_.emplace(id, std::move(node));
  return {true, 0.0, ""};
}

bool NodeRegistry::heartbeat(const std::string& id, std::size_t busy,
                             double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.alive) return false;
  it->second.busy = std::min(busy, it->second.slots);
  it->second.last_seen_s = now_s;
  return true;
}

std::vector<std::string> NodeRegistry::expire(double now_s) {
  std::vector<std::string> dead;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, node] : nodes_) {
    if (!node.alive) continue;
    if (now_s - node.last_seen_s <= options_.heartbeat_timeout_s) continue;
    node.alive = false;
    ++node.deaths;
    node.readmit_at_s = now_s + backoff_s(options_, id, node.deaths);
    dead.push_back(id);
  }
  return dead;
}

void NodeRegistry::mark_dead(const std::string& id, double now_s) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(id);
  if (it == nodes_.end() || !it->second.alive) return;
  NodeInfo& node = it->second;
  node.alive = false;
  ++node.deaths;
  node.readmit_at_s = now_s + backoff_s(options_, id, node.deaths);
}

void NodeRegistry::record_eval(const std::string& id, bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  if (ok) {
    ++it->second.evals_ok;
  } else {
    ++it->second.evals_failed;
  }
  // Any delivered result proves the connection works, whatever the eval's
  // outcome — the node has earned a short next backoff.
  it->second.deaths = 0;
}

bool NodeRegistry::alive(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.alive;
}

std::size_t NodeRegistry::nodes_alive() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, node] : nodes_) {
    if (node.alive) ++n;
  }
  return n;
}

std::size_t NodeRegistry::slots_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, node] : nodes_) {
    if (node.alive) n += node.slots;
  }
  return n;
}

std::vector<NodeInfo> NodeRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<NodeInfo> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(node);
  return out;
}

json::Value NodeRegistry::to_json() const {
  json::Array nodes;
  for (const NodeInfo& node : snapshot()) {
    json::Object n;
    n["id"] = json::Value(node.id);
    n["alive"] = json::Value(node.alive);
    n["slots"] = json::Value(node.slots);
    n["busy"] = json::Value(node.busy);
    n["deaths"] = json::Value(node.deaths);
    n["evals_ok"] = json::Value(static_cast<double>(node.evals_ok));
    n["evals_failed"] = json::Value(static_cast<double>(node.evals_failed));
    nodes.emplace_back(std::move(n));
  }
  json::Object out;
  out["nodes"] = json::Value(std::move(nodes));
  return json::Value(std::move(out));
}

}  // namespace tunekit::fleet
