#pragma once
// Capped exponential backoff with deterministic, subtract-only jitter: the
// fleet's re-admission window (NodeRegistry) and reconnect delay (NodeAgent).
//
// Without jitter a correlated outage (a rack power blip, a dispatcher
// restart) synchronizes every node's backoff clock and they all stampede at
// the same instant. Subtract-only jitter keeps the capped window an upper
// bound (nobody waits longer than the advertised policy), and hashing keeps
// the spread reproducible for tests.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/hash.hpp"

namespace tunekit::common {

/// min(base_s * 2^doublings, max_s), shortened by up to 20% by a factor
/// derived from stable_hash(id) ^ k. Callers bound `doublings` (< 64).
inline double jittered_backoff_s(double base_s, double max_s, std::size_t doublings,
                                 const std::string& id, std::uint64_t k) {
  const double capped =
      std::min(base_s * static_cast<double>(1ull << doublings), max_s);
  const std::uint64_t h = stable_hash(id) ^ k;
  return capped * (1.0 - 0.2 * (static_cast<double>(h % 1000) / 999.0));
}

}  // namespace tunekit::common
