// Builds a core::Genesis from a workload trace generator.
#pragma once

#include "core/sharded_system.hpp"
#include "workload/trace.hpp"

namespace jenga::harness {

[[nodiscard]] inline core::Genesis make_genesis(const workload::TraceGenerator& gen) {
  core::Genesis g;
  g.num_accounts = gen.config().num_accounts;
  g.initial_balance = gen.config().account_initial_balance;
  g.contracts = gen.contracts();
  g.initial_states.reserve(g.contracts.size());
  for (std::size_t i = 0; i < g.contracts.size(); ++i)
    g.initial_states.push_back(gen.initial_state(i));
  return g;
}

}  // namespace jenga::harness
