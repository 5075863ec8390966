// Scenario runner: executes a scenario script (examples/scenarios/*.scen)
// against the driver, then validates the collected implementation trace
// against the consensus spec — scenario testing and trace validation in
// one command, the paper's CI workflow in miniature (§6).
//
//   ./scenario_runner <file.scen> [more.scen ...]
//   ./scenario_runner            # runs a built-in demo scenario
#include <cstdio>

#include "driver/scenario.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"

using namespace scv;
using namespace scv::driver;

namespace
{
  constexpr const char* demo = R"(
# built-in demo: replication + failover
nodes 1 2 3
submit hello
sign
tick 40
expect-status 1.3 COMMITTED
crash 1
tick 150
expect-new-leader
submit world
sign
tick 80
check
)";

  int run_one(const char* name, const std::string& script_path_or_empty)
  {
    ScenarioRunner runner;
    const ScenarioResult result = script_path_or_empty.empty() ?
      runner.run_text(demo) :
      runner.run_file(script_path_or_empty);

    if (!result.ok)
    {
      std::printf(
        "%-32s FAILED at line %zu: %s\n",
        name,
        result.failed_line,
        result.error.c_str());
      return 1;
    }

    // Scenario passed; now check the run is a behavior of the spec.
    auto& cluster = *result.cluster;
    std::vector<uint64_t> initial;
    uint64_t lowest = 0;
    uint8_t n_nodes = 0;
    for (const NodeId id : cluster.node_ids())
    {
      n_nodes = static_cast<uint8_t>(std::max<uint64_t>(n_nodes, id));
    }
    // Recover the bootstrap configuration from the first log entry of a
    // node that still has it — compaction drops entry bodies, so skip
    // nodes whose ledgers start above the bootstrap prefix.
    const consensus::RaftNode* bootstrapped = nullptr;
    for (const NodeId id : cluster.node_ids())
    {
      const auto& n = cluster.node(id);
      if (n.ledger().start_index() == 0 && n.ledger().last_index() >= 2)
      {
        bootstrapped = &n;
        break;
      }
    }
    if (bootstrapped == nullptr)
    {
      std::printf(
        "%-32s ok: %zu commands, but every ledger is compacted past the "
        "bootstrap prefix; skipping trace validation\n",
        name,
        result.commands_executed);
      return 0;
    }
    initial = bootstrapped->ledger().at(1).config;
    lowest = bootstrapped->ledger().at(2).signer; // bootstrap signature signer

    const auto params = trace::validation_params(initial, lowest, n_nodes);
    // Loss and duplication are not recorded in traces; IsFault·Next
    // composition lets the validator insert bounded drop/duplicate steps
    // so scenarios run under lossy/duplicating networks validate too.
    trace::ConsensusValidationOptions vopts;
    vopts.fault_composition = true;
    const auto validation =
      trace::validate_consensus_trace(cluster.trace(), params, vopts);

    std::printf(
      "%-32s ok: %zu commands, %zu trace events, validation %s "
      "(%zu lines, %.3fs)\n",
      name,
      result.commands_executed,
      trace::preprocess(cluster.trace()).size(),
      validation.ok ? "VALID" : "** INVALID **",
      validation.lines_matched,
      validation.stats.seconds);
    return validation.ok ? 0 : 1;
  }
}

int main(int argc, char** argv)
{
  int failures = 0;
  if (argc <= 1)
  {
    failures += run_one("(built-in demo)", "");
  }
  for (int i = 1; i < argc; ++i)
  {
    failures += run_one(argv[i], argv[i]);
  }
  return failures == 0 ? 0 : 1;
}
