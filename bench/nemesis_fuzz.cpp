// Nemesis fuzzing throughput: how fast the randomized fault-injection
// loop turns over, what the fault mix looks like, how much of the clean
// batch survives spec validation, and how hard the shrinker works on a
// real counterexample (Table 2 bug 1 re-injected).
//
//   ./nemesis_fuzz [--seed=N] [--seconds=S]
//
// Emits BENCH_nemesis.json:
//   runs: [clean-fuzz, clean-fuzz+validate, bug1-hunt] with runs/s as the
//         states_per_s column
//   fields: faults_by_kind, traces_validated / rejected / inconclusive,
//           shrink_iterations, failing_ops, shrunk_ops
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "driver/nemesis.h"
#include "spec/budget.h"

using namespace scv;
using namespace scv::bench;
using namespace scv::driver::nemesis;

namespace
{
  spec::Budget seconds_budget(double seconds)
  {
    return spec::Budget(spec::Budget::Caps{seconds, UINT64_MAX, UINT64_MAX});
  }

  void add_fuzz_run(
    BenchReport& out, const std::string& label, const NemesisReport& r)
  {
    const double runs_per_s =
      r.seconds > 0 ? static_cast<double>(r.runs) / r.seconds : 0.0;
    out.add_run(label, 1, runs_per_s, r.trace_events, r.seconds);
  }
}

int main(int argc, char** argv)
{
  uint64_t seed = 2026;
  double seconds = 20.0;
  for (int i = 1; i < argc; ++i)
  {
    if (std::strncmp(argv[i], "--seed=", 7) == 0)
    {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
    else if (std::strncmp(argv[i], "--seconds=", 10) == 0)
    {
      seconds = std::strtod(argv[i] + 10, nullptr);
    }
    else
    {
      std::fprintf(
        stderr,
        "unknown argument: %s\n"
        "usage: nemesis_fuzz [--seed=N] [--seconds=S]\n",
        argv[i]);
      return 2;
    }
  }

  BenchReport out("nemesis");
  out.add_field("seed", seed);

  // --- Raw fuzzing throughput (no validation) ------------------------------
  std::printf("=== clean fuzz, no validation (%.0fs) ===\n", seconds / 2);
  NemesisOptions raw;
  raw.seed = seed;
  raw.validate_traces = false;
  Nemesis raw_nem(raw);
  const NemesisReport raw_report = raw_nem.fuzz(seconds_budget(seconds / 2));
  std::printf("%s", raw_report.summary().c_str());
  add_fuzz_run(out, "clean-fuzz", raw_report);

  json::Object kinds;
  for (const auto& [kind, count] : raw_report.faults_by_kind)
  {
    kinds.emplace_back(kind, count);
  }
  out.add_field("faults_by_kind", kinds);

  // --- Fuzz -> validate loop ----------------------------------------------
  std::printf("=== clean fuzz -> validate (%.0fs) ===\n", seconds / 2);
  NemesisOptions checked = raw;
  checked.validate_traces = true;
  Nemesis checked_nem(checked);
  const NemesisReport checked_report =
    checked_nem.fuzz(seconds_budget(seconds / 2));
  std::printf("%s", checked_report.summary().c_str());
  add_fuzz_run(out, "clean-fuzz+validate", checked_report);
  out.add_field("traces_validated", checked_report.traces_validated);
  out.add_field("traces_rejected", checked_report.traces_rejected);
  out.add_field("traces_inconclusive", checked_report.traces_inconclusive);

  // --- Bug-1 hunt + shrink -------------------------------------------------
  std::printf("=== bug-1 hunt + shrink ===\n");
  NemesisOptions buggy = raw;
  buggy.node_template.bugs.quorum_union_tally = true;
  Nemesis buggy_nem(buggy);
  const NemesisReport hunt = buggy_nem.fuzz(seconds_budget(seconds));
  std::printf("%s", hunt.summary().c_str());
  add_fuzz_run(out, "bug1-hunt", hunt);
  out.add_field("bug1_found", hunt.failing.has_value());
  out.add_field("shrink_iterations", hunt.shrink_iterations);
  out.add_field(
    "failing_ops",
    hunt.failing ? static_cast<uint64_t>(hunt.failing->size()) : 0);
  out.add_field(
    "shrunk_ops",
    hunt.shrunk ? static_cast<uint64_t>(hunt.shrunk->size()) : 0);

  out.write();
  return 0;
}
