// Symmetry-reduction ablation (docs/SPEC.md "Symmetry reduction"):
// exhaustive consensus model checking with canonical-under-node-permutation
// fingerprinting ON vs OFF at identical caps. Reports distinct states,
// throughput and the reduction factor, asserts the verdicts are identical,
// and writes BENCH_symmetry.json. Exits non-zero if symmetry changes a
// verdict or fails to reduce the state count — ci/check.sh runs this as a
// smoke test.
//
// The model uses the paper's full initial-state set (every non-empty
// subset of the initial configuration with every leader choice), which is
// closed under node permutation — the regime where quotienting approaches
// the full |G| = n! factor. A single bootstrapped initial state (leader 1)
// is also measured: orbits are only partially populated near the root, so
// the factor is smaller but still > 1.
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "spec/model_checker.h"
#include "specs/consensus/spec.h"

using namespace scv;
using namespace scv::spec;
using namespace scv::specs::ccfraft;

namespace
{
  Params ablation_model()
  {
    Params p;
    p.n_nodes = 3;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 3;
    p.max_batch = 1;
    p.max_network = 1;
    p.max_copies = 1;
    return p;
  }

  struct Cell
  {
    CheckResult<State> result;
    double seconds = 0.0;
  };

  Cell run(const SpecDef<State>& spec, bool symmetry, unsigned threads)
  {
    CheckLimits limits;
    limits.symmetry = symmetry;
    limits.threads = threads;
    limits.time_budget_seconds = 600.0;
    bench::Stopwatch watch;
    Cell cell;
    cell.result = model_check(spec, limits);
    cell.seconds = watch.seconds();
    return cell;
  }
}

int main(int argc, char** argv)
{
  bool quick = false;
  for (int i = 1; i < argc; ++i)
  {
    quick = quick || std::strcmp(argv[i], "--quick") == 0;
  }

  const Params params = ablation_model();
  auto spec = build_spec(params);

  // Symmetric initial-state set (the paper's §4 init).
  auto symmetric_spec = spec;
  symmetric_spec.init = all_initial_states(params);

  bench::BenchReport report("symmetry");
  bool ok = true;
  double symmetric_reduction = 0.0;
  Cell symmetric_on;

  struct Config
  {
    const char* label;
    const SpecDef<State>* spec;
    bool symmetric_init;
  };
  const std::vector<Config> configs = {
    {"symmetric-init", &symmetric_spec, true},
    {"single-init", &spec, false},
  };

  std::printf(
    "%-16s %12s %12s %10s %10s %10s\n",
    "init",
    "off-distinct",
    "on-distinct",
    "reduction",
    "off-s",
    "on-s");
  bench::print_rule(76);

  for (const Config& config : configs)
  {
    if (quick && !config.symmetric_init)
    {
      continue; // smoke mode: one exhaustive pair is enough
    }
    const Cell off = run(*config.spec, false, 1);
    const Cell on = run(*config.spec, true, 1);

    const bool verdicts_match = off.result.ok == on.result.ok &&
      off.result.stats.complete && on.result.stats.complete;
    const double reduction = on.result.stats.distinct_states == 0 ?
      0.0 :
      static_cast<double>(off.result.stats.distinct_states) /
        static_cast<double>(on.result.stats.distinct_states);
    ok = ok && verdicts_match && reduction > 1.0;
    if (config.symmetric_init)
    {
      symmetric_reduction = reduction;
      symmetric_on = on;
    }

    std::printf(
      "%-16s %12llu %12llu %9.2fx %9.2fs %9.2fs\n",
      config.label,
      static_cast<unsigned long long>(off.result.stats.distinct_states),
      static_cast<unsigned long long>(on.result.stats.distinct_states),
      reduction,
      off.seconds,
      on.seconds);

    report.add_run(
      std::string(config.label) + "/symmetry-off", 1, off.result);
    report.add_run(std::string(config.label) + "/symmetry-on", 1, on.result);
    report.add_field(
      std::string(config.label) + "_reduction_factor", reduction);
    report.add_field(
      std::string(config.label) + "_verdicts_match", verdicts_match);
    report.add_field(
      std::string(config.label) + "_symmetry_hits",
      on.result.stats.symmetry_hits);
    report.add_field(
      std::string(config.label) + "_canonicalized",
      on.result.stats.canonicalized_states);
  }

  // Four-worker BFS under symmetry agrees with the one-worker quotient.
  const Cell par = run(symmetric_spec, true, 4);
  const bool parallel_matches = par.result.ok == symmetric_on.result.ok &&
    par.result.stats.distinct_states ==
      symmetric_on.result.stats.distinct_states;
  ok = ok && parallel_matches;
  report.add_run("symmetric-init/symmetry-on", 4, par.result);
  report.add_field("parallel_matches_sequential", parallel_matches);

  report.add_field("n_nodes", static_cast<uint64_t>(params.n_nodes));
  report.write();

  if (!ok)
  {
    std::fprintf(
      stderr,
      "FAIL: symmetry changed a verdict, produced no reduction, or "
      "diverged under parallel BFS\n");
    return 1;
  }
  std::printf(
    "symmetric-init reduction %.2fx; verdicts identical\n",
    symmetric_reduction);
  return 0;
}
