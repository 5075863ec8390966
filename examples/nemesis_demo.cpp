// Nemesis demo: deterministic randomized fault injection end to end.
//
//   ./nemesis_demo [--seed=N] [--seconds=S] [--clean-runs=N]
//                  [--bug-runs=N] [--scen-out=path] [--validate-threads=N]
//
// Three acts, each of which exits non-zero on failure:
//
//   1. Determinism: the same seed regenerates byte-identical fault
//      schedules and re-executing a schedule reproduces the identical
//      implementation trace and verdict.
//   2. Clean fuzz -> validate: with every BugFlags flag off, a batch of
//      randomized fault schedules (crashes + restarts, partitions, loss,
//      duplication, clock skew, election and retry storms, reconfigs)
//      runs under the cross-node invariant checker, and every surviving
//      trace must be a behavior of the consensus spec.
//   3. Bug hunt -> shrink -> replay: with Table-2 bug 1 (quorum tallied
//      over the union of active configurations) re-injected, the fuzzer
//      must find an invariant violation within the budget, shrink it to
//      a strictly smaller minimal schedule, and the emitted .scen must
//      still fail when replayed from the file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "driver/nemesis.h"
#include "driver/scenario.h"
#include "spec/budget.h"

using namespace scv;
using namespace scv::driver;

namespace
{
  int fail(const char* what)
  {
    std::fprintf(stderr, "nemesis_demo: FAILED: %s\n", what);
    return 1;
  }
}

int main(int argc, char** argv)
{
  uint64_t seed = 2026;
  double seconds = 60.0;
  uint64_t clean_runs = 10;
  uint64_t bug_runs = 400;
  std::string scen_out = "nemesis_min.scen";
  unsigned validate_threads = 1;
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
    else if (std::strncmp(argv[i], "--clean-runs=", 13) == 0)
    {
      clean_runs = std::strtoull(argv[i] + 13, nullptr, 10);
    }
    else if (std::strncmp(argv[i], "--bug-runs=", 11) == 0)
    {
      bug_runs = std::strtoull(argv[i] + 11, nullptr, 10);
    }
    else if (std::strncmp(argv[i], "--scen-out=", 11) == 0)
    {
      scen_out = argv[i] + 11;
    }
    else if (std::strncmp(argv[i], "--validate-threads=", 19) == 0)
    {
      validate_threads =
        static_cast<unsigned>(std::strtoul(argv[i] + 19, nullptr, 10));
    }
    else
    {
      std::fprintf(
        stderr,
        "unknown argument: %s\n"
        "usage: nemesis_demo [--seed=N] [--seconds=S] [--clean-runs=N]\n"
        "                    [--bug-runs=N] [--scen-out=path] "
        "[--validate-threads=N]\n",
        argv[i]);
      return 2;
    }
  }

  nemesis::NemesisOptions base;
  base.seed = seed;
  base.validate_threads = validate_threads;

  // --- Act 1: determinism -------------------------------------------------
  std::printf("=== determinism (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  {
    nemesis::Nemesis a(base);
    nemesis::Nemesis b(base);
    for (uint64_t i = 0; i < 5; ++i)
    {
      if (a.generate(i).to_scen() != b.generate(i).to_scen())
      {
        return fail("same seed produced different schedules");
      }
    }
    const auto schedule = a.generate(0);
    const auto r1 = a.execute(schedule);
    const auto r2 = b.execute(schedule);
    if (r1.violation != r2.violation || r1.error != r2.error ||
        !(r1.trace == r2.trace))
    {
      return fail("re-executing a schedule changed the trace or verdict");
    }
    std::printf(
      "5 schedules regenerate identically; schedule 0 replays to an "
      "identical %zu-event trace\n",
      r1.trace.size());
  }

  // --- Act 2: clean fuzz -> validate --------------------------------------
  std::printf("=== clean fuzz -> validate (%llu runs) ===\n",
              static_cast<unsigned long long>(clean_runs));
  {
    nemesis::NemesisOptions opts = base;
    opts.max_runs = clean_runs;
    opts.validate_traces = true;
    nemesis::Nemesis nem(opts);
    const spec::Budget budget(
      spec::Budget::Caps{seconds * 0.5, UINT64_MAX, UINT64_MAX});
    const auto report = nem.fuzz(budget);
    std::printf("%s", report.summary().c_str());
    if (report.violations != 0)
    {
      return fail("invariant violation with all bugs off");
    }
    if (report.traces_rejected != 0)
    {
      return fail("a clean run's trace was rejected by the spec");
    }
    if (report.traces_validated == 0)
    {
      return fail("no trace was validated");
    }
  }

  // --- Act 3: bug hunt -> shrink -> replay --------------------------------
  std::printf("=== bug-1 hunt (quorum_union_tally) ===\n");
  {
    nemesis::NemesisOptions opts = base;
    opts.node_template.bugs.quorum_union_tally = true;
    opts.validate_traces = false; // hunting, not validating
    opts.max_runs = bug_runs;
    nemesis::Nemesis nem(opts);
    const spec::Budget budget(
      spec::Budget::Caps{seconds, UINT64_MAX, UINT64_MAX});
    const auto report = nem.fuzz(budget);
    std::printf("%s", report.summary().c_str());
    if (!report.failing.has_value())
    {
      return fail("bug 1 not found within the budget");
    }
    if (!report.shrunk.has_value())
    {
      return fail("no shrunk schedule produced");
    }
    if (report.shrunk->size() >= report.failing->size())
    {
      return fail("shrinking did not reduce the schedule");
    }
    std::ofstream out(scen_out);
    out << report.shrunk->to_scen();
    out.close();
    std::printf("wrote minimal schedule to %s\n", scen_out.c_str());

    ScenarioRunner runner(opts.node_template);
    const auto replay = runner.run_file(scen_out);
    if (replay.ok ||
        replay.error.rfind("invariant violation", 0) != 0)
    {
      return fail("replayed minimal .scen did not reproduce the violation");
    }
    std::printf(
      "replay of %s fails at line %zu: %s\n",
      scen_out.c_str(),
      replay.failed_line,
      replay.error.c_str());
  }

  std::printf("nemesis_demo: all checks passed\n");
  return 0;
}
