// Nemesis trace-validation phase: a fixed-length list of seeded fault
// schedules, each executed against the implementation and its trace then
// DFS-validated against the consensus spec with fault composition. Every
// trace gets the same state cap and no time cap, so a verdict depends on
// the trace alone.
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "driver/nemesis.h"
#include "stats.h"
#include "trace/consensus_binding.h"
#include "trace/preprocess.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench
{
  namespace
  {
    using namespace scv;
    using driver::nemesis::FaultSchedule;
    using driver::nemesis::Nemesis;

    constexpr uint64_t kMaxStatesPerTrace = 200'000;
    /// Nemesis seed of the schedule corpus.
    constexpr uint64_t kCorpusSeed = 2026;
    constexpr unsigned kWorkers = 4;

    struct Plan
    {
      /// Schedules 0..schedules-1 of the corpus.
      uint64_t schedules;
      /// Passes over them an untraced run makes at least.
      size_t units;
    };
    constexpr Plan kPrimary{40, 1};
    constexpr Plan kProbe{14, 3};

    enum class Verdict
    {
      Validated,
      Rejected,
      Inconclusive,
    };

    struct TraceResult
    {
      Verdict verdict = Verdict::Inconclusive;
      /// Execution plus validation, wall seconds.
      double wall_s = 0;
      uint64_t states = 0;
      uint64_t lines = 0;
      uint64_t memo_hits = 0;
      uint64_t steals = 0;
    };

    struct Pass
    {
      std::vector<TraceResult> traces;
      double wall_s = 0;
      uint64_t violations = 0;
      uint64_t script_errors = 0;
    };

    specs::ccfraft::Params params_for(const FaultSchedule& schedule)
    {
      const std::vector<uint64_t> config(
        schedule.initial_config.begin(), schedule.initial_config.end());
      return trace::validation_params(
        config,
        schedule.initial_leader,
        static_cast<uint8_t>(schedule.max_node));
    }

    Pass run_pass(
      const Nemesis& nemesis,
      const std::vector<FaultSchedule>& corpus,
      SpanRecorder& spans)
    {
      Pass pass;
      const uint64_t start = now_ns();
      for (size_t i = 0; i < corpus.size(); ++i)
      {
        const uint64_t request = i + 1;
        const uint64_t trace_start = now_ns();
        const FaultSchedule& schedule = corpus[i];
        driver::nemesis::RunOutcome outcome;
        {
          SpanRecorder::Scope s(spans, "nemesis.execute", request);
          outcome = nemesis.execute(schedule);
        }
        pass.violations += outcome.violation ? 1 : 0;
        pass.script_errors += outcome.script_error ? 1 : 0;

        const auto params = params_for(schedule);
        if (spans.enabled())
        {
          // Binding is timed on its own; validate_consensus_trace repeats
          // it internally, and trace.search.us subtracts it.
          SpanRecorder::Scope s(spans, "trace.bind", request);
          const auto events = trace::preprocess(outcome.trace);
          const auto lines = trace::bind_consensus_trace(events, params);
          (void)lines;
        }
        trace::ConsensusValidationOptions vopts;
        vopts.fault_composition = true;
        vopts.search.mode = spec::SearchMode::Dfs;
        vopts.search.threads = kWorkers;
        vopts.search.max_states = kMaxStatesPerTrace;
        spec::ValidationResult<specs::ccfraft::State> result;
        {
          SpanRecorder::Scope s(spans, "trace.validate", request);
          result =
            trace::validate_consensus_trace(outcome.trace, params, vopts);
        }
        TraceResult t;
        t.wall_s = static_cast<double>(now_ns() - trace_start) / 1e9;
        t.verdict = result.ok ? Verdict::Validated :
          result.stats.complete ? Verdict::Rejected :
                                  Verdict::Inconclusive;
        t.states = result.states_explored;
        if (spans.enabled())
        {
          t.lines = trace::preprocess(outcome.trace).size();
        }
        t.memo_hits = result.stats.memo_hits;
        t.steals = result.stats.steals;
        pass.traces.push_back(t);
      }
      pass.wall_s = static_cast<double>(now_ns() - start) / 1e9;
      return pass;
    }
  }

  void run_validate(bool primary, RunContext& ctx)
  {
    Report& report = ctx.report;
    const Plan& plan = primary ? kPrimary : kProbe;

    // Set-up: generate the schedule corpus, in an order drawn from the
    // run seed. The corpus itself is fixed (README.md, "nemesis_validate").
    driver::nemesis::NemesisOptions options;
    options.seed = kCorpusSeed;
    std::vector<uint64_t> order(plan.schedules);
    std::iota(order.begin(), order.end(), 0);
    Rng rng(derive_seed(ctx.seed, 0x7e5));
    for (size_t i = order.size(); i > 1; --i)
    {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    std::vector<double> setups;
    std::vector<FaultSchedule> corpus;
    for (int i = 0; i < 5; ++i)
    {
      const uint64_t start = now_ns();
      const Nemesis generator(options);
      corpus.clear();
      for (const uint64_t k : order)
      {
        corpus.push_back(generator.generate(k));
      }
      setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    ctx.setup_s = median(setups);
    const Nemesis nemesis(options);

    std::vector<Pass> passes;
    SpanRecorder off(false);
    if (ctx.trace && primary)
    {
      passes.push_back(run_pass(nemesis, corpus, off));
    }
    const uint64_t phase_start = now_ns();
    const size_t min_passes = passes.size() + (ctx.trace ? 1 : plan.units);
    do
    {
      SpanRecorder& spans = ctx.trace ? ctx.spans : off;
      passes.push_back(run_pass(nemesis, corpus, spans));
    } while (passes.size() < min_passes ||
             (primary && !ctx.trace &&
              static_cast<double>(now_ns() - phase_start) / 1e9 < ctx.seconds));

    const Pass& first = passes.front();
    uint64_t validated = 0;
    uint64_t rejected = 0;
    uint64_t inconclusive = 0;
    for (const TraceResult& t : first.traces)
    {
      validated += t.verdict == Verdict::Validated ? 1 : 0;
      rejected += t.verdict == Verdict::Rejected ? 1 : 0;
      inconclusive += t.verdict == Verdict::Inconclusive ? 1 : 0;
    }
    for (const Pass& pass : passes)
    {
      report.check(
        pass.violations == 0, "nemesis: a schedule violated an invariant");
      report.check(
        pass.script_errors == 0,
        "nemesis: a schedule aborted on a script error");
      bool same = pass.traces.size() == first.traces.size();
      for (size_t i = 0; same && i < pass.traces.size(); ++i)
      {
        same = pass.traces[i].verdict == first.traces[i].verdict;
      }
      report.check(
        same, "nemesis: a schedule's verdict changed between passes");
    }
    report.check(rejected == 0, "nemesis: the spec rejected a trace");
    std::fprintf(
      stderr,
      "validate: %zu pass(es) of %zu schedules: %llu validated, %llu "
      "inconclusive, %llu rejected\n",
      passes.size(),
      corpus.size(),
      static_cast<unsigned long long>(validated),
      static_cast<unsigned long long>(inconclusive),
      static_cast<unsigned long long>(rejected));

    if (primary)
    {
      report.attempted = corpus.size();
      report.failed = inconclusive + rejected;
    }
    const double frac = static_cast<double>(inconclusive) /
      static_cast<double>(corpus.size());
    if (!ctx.trace)
    {
      // Each schedule's median time over the passes, so a burst of noise
      // on the machine moves few samples.
      double wall = 0;
      for (size_t i = 0; i < corpus.size(); ++i)
      {
        std::vector<double> times;
        for (const Pass& pass : passes)
        {
          times.push_back(pass.traces[i].wall_s);
        }
        wall += median(times);
      }
      report.metric(
        "validate.traces_per_s",
        static_cast<double>(corpus.size()) / wall,
        "1/s");
      report.metric("validate.inconclusive_frac", frac, "frac");
      return;
    }

    const Pass& traced = passes.back();
    const auto execute_us = ctx.spans.durations_us("nemesis.execute");
    const auto bind_us = ctx.spans.durations_us("trace.bind");
    const auto validate_us = ctx.spans.durations_us("trace.validate");
    std::vector<double> search_us;
    for (size_t i = 0; i < validate_us.size() && i < bind_us.size(); ++i)
    {
      search_us.push_back(std::max(0.0, validate_us[i] - bind_us[i]));
    }
    uint64_t states = 0;
    uint64_t lines = 0;
    uint64_t memo_hits = 0;
    uint64_t steals = 0;
    uint64_t wasted = 0;
    for (const TraceResult& t : traced.traces)
    {
      states += t.states;
      lines += t.lines;
      memo_hits += t.memo_hits;
      steals += t.steals;
      wasted += t.verdict == Verdict::Inconclusive ? t.states : 0;
    }
    report.metric("nemesis.execute.us", median(execute_us), "us");
    report.metric("trace.bind.us", median(bind_us), "us");
    report.metric("trace.search.us", median(search_us), "us");
    const auto ratio = [](uint64_t a, uint64_t b) {
      return static_cast<double>(a) /
        static_cast<double>(std::max<uint64_t>(b, 1));
    };
    report.metric("trace.states_per_line", ratio(states, lines), "count");
    report.metric("trace.memo_hits", static_cast<double>(memo_hits), "count");
    report.metric("trace.steals", static_cast<double>(steals), "count");
    report.metric("trace.wasted_states_frac", ratio(wasted, states), "frac");
    if (primary)
    {
      report.metric(
        "tracing.overhead_frac", traced.wall_s / first.wall_s - 1.0, "frac");
    }
  }
}
