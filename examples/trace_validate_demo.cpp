// Trace validation demo (§6): run a scenario, collect the implementation
// trace, write it to JSONL, and validate it against the consensus spec —
// then corrupt one line and watch validation fail with the paper's
// "unsatisfied state" diagnostics.
//
//   ./trace_validate_demo [--mode=all|dfs|bfs] [--threads=N]
//                         [--max-diagnostics=K] [trace-output.jsonl]
//
// --threads selects the worker count (ValidationOptions::threads; 1 = one
// worker, deterministic; 0 = hardware concurrency). It applies to both
// engines: BFS splits each line's frontier across the fork-join pool; DFS
// runs the work-stealing search with the shared dead-end memo. --mode
// narrows the run to one engine — CI smokes `--mode=dfs` at threads 1 and
// 4 under ThreadSanitizer. --max-diagnostics caps the candidate states
// kept for the unsatisfied-state report
// (ValidationOptions::max_diagnostic_states). Any other "--" argument, or
// a second trace path, prints usage and exits 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "driver/cluster.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"
#include "trace/trace_io.h"

using namespace scv;
using namespace scv::driver;

namespace
{
  int usage(const char* arg)
  {
    std::fprintf(
      stderr,
      "unknown argument: %s\n"
      "usage: trace_validate_demo [--mode=all|dfs|bfs] [--threads=N]\n"
      "                           [--max-diagnostics=K] "
      "[trace-output.jsonl]\n",
      arg);
    return 2;
  }
}

int main(int argc, char** argv)
{
  unsigned threads = 1;
  size_t max_diagnostics = 8;
  std::string mode = "all";
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i)
  {
    if (std::strncmp(argv[i], "--threads=", 10) == 0)
    {
      threads = static_cast<unsigned>(std::strtoul(argv[i] + 10, nullptr, 10));
    }
    else if (std::strncmp(argv[i], "--mode=", 7) == 0)
    {
      mode = argv[i] + 7;
      if (mode != "all" && mode != "dfs" && mode != "bfs")
      {
        std::fprintf(stderr, "unknown --mode=%s (all|dfs|bfs)\n", mode.c_str());
        return 2;
      }
    }
    else if (std::strncmp(argv[i], "--max-diagnostics=", 18) == 0)
    {
      max_diagnostics = std::strtoull(argv[i] + 18, nullptr, 10);
    }
    else if (std::strncmp(argv[i], "--", 2) == 0 || trace_path != nullptr)
    {
      return usage(argv[i]);
    }
    else
    {
      trace_path = argv[i];
    }
  }
  const bool run_dfs = mode != "bfs";
  const bool run_bfs = mode != "dfs";

  // 1. Run a scenario that exercises replication, an election, and
  //    catch-up.
  ClusterOptions options;
  options.initial_config = {1, 2, 3};
  options.initial_leader = 1;
  options.seed = 42;
  Cluster c(options);
  c.submit("alpha");
  c.sign();
  for (int i = 0; i < 30; ++i)
  {
    c.tick_all();
    c.drain();
  }
  c.crash(1); // fail-stop: a new leader must be elected
  for (int i = 0; i < 90; ++i)
  {
    c.tick_all();
    c.drain();
  }
  c.submit("beta");
  c.sign();
  for (int i = 0; i < 60; ++i)
  {
    c.tick_all();
    c.drain();
  }

  const auto events = trace::preprocess(c.trace());
  std::printf(
    "collected %zu raw events, %zu after preprocessing\n",
    c.trace().size(),
    events.size());

  if (trace_path != nullptr)
  {
    if (trace::write_file(trace_path, events))
    {
      std::printf("wrote trace to %s\n", trace_path);
    }
  }

  // 2. Validate: is this trace a behavior of the spec (T ∩ S ≠ ∅)?
  //    DFS finds the single witness; BFS sweeps the full frontier with
  //    the requested worker count (§6.4 compares the two).
  const auto params = trace::validation_params({1, 2, 3}, 1, 3);
  trace::ConsensusValidationOptions vopts;
  vopts.search.max_diagnostic_states = max_diagnostics;
  vopts.search.threads = threads;
  if (run_dfs)
  {
    const auto result =
      trace::validate_consensus_trace(c.trace(), params, vopts);
    std::printf(
      "validation (DFS, threads=%u): %s — %zu/%zu lines matched, %llu states "
      "explored, witness of %zu states, %.3fs (memo_hits=%llu steals=%llu)\n",
      threads,
      result.ok ? "VALID" : "INVALID",
      result.lines_matched,
      events.size(),
      static_cast<unsigned long long>(result.states_explored),
      result.witness.size(),
      result.stats.seconds,
      static_cast<unsigned long long>(result.stats.memo_hits),
      static_cast<unsigned long long>(result.stats.steals));
    if (!result.ok)
    {
      return 1;
    }
  }

  if (run_bfs)
  {
    vopts.search.mode = spec::SearchMode::Bfs;
    const auto bfs = trace::validate_consensus_trace(c.trace(), params, vopts);
    std::printf(
      "validation (BFS, threads=%u): %s — %zu/%zu lines matched, %llu "
      "states explored, witness of %zu states, %.3fs\n",
      threads,
      bfs.ok ? "VALID" : "INVALID",
      bfs.lines_matched,
      events.size(),
      static_cast<unsigned long long>(bfs.states_explored),
      bfs.witness.size(),
      bfs.stats.seconds);
    if (!bfs.ok)
    {
      return 1;
    }
  }

  // 3. Corrupt one advanceCommit line ("bogus logging", §6.3) and re-run.
  auto corrupted = events;
  for (auto& e : corrupted)
  {
    if (e.kind == trace::EventKind::AdvanceCommit)
    {
      e.commit_idx += 1;
      std::printf(
        "\ncorrupting line: advanceCommit node=%llu commit %llu -> %llu\n",
        static_cast<unsigned long long>(e.node),
        static_cast<unsigned long long>(e.commit_idx - 1),
        static_cast<unsigned long long>(e.commit_idx));
      break;
    }
  }
  vopts.search.mode =
    run_dfs ? spec::SearchMode::Dfs : spec::SearchMode::Bfs;
  const auto bad = trace::validate_consensus_trace(corrupted, params, vopts);
  std::printf(
    "validation: %s — matched %zu lines, then failed at:\n  %s\n",
    bad.ok ? "VALID (?!)" : "INVALID (as expected)",
    bad.lines_matched,
    bad.failed_line.c_str());
  std::printf(
    "unsatisfied-state diagnostics (%zu candidate states at the failing "
    "line, cap %zu):\n",
    bad.frontier_at_failure.size(),
    max_diagnostics);
  for (size_t i = 0; i < bad.frontier_at_failure.size() && i < 2; ++i)
  {
    std::printf("  %s\n", bad.frontier_at_failure[i].to_string().c_str());
  }
  return bad.ok ? 1 : 0;
}
