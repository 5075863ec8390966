// Verification campaigns: all three engines, one store, one clock (§4–§6).
//
// The paper runs its verification as a portfolio — exhaustive model
// checking where feasible, randomized simulation where not, and trace
// validation against implementation runs — and reports coverage per
// technique (Table 1). A Campaign packages that portfolio behind one
// session API:
//
//   * One ShardedStateStore shared by every engine. Each admission is
//     tagged with the discovering engine (EngineId), so the campaign can
//     report per-engine first-discovery counts next to the unioned total;
//     a state two engines both visit is counted once, for whichever got
//     there first. Union == store size == sum of per-engine contributions.
//   * Cross-engine seeding. A checker cut short by its budget exports its
//     unexpanded BFS frontier; the simulator starts its walks there
//     instead of at the initial states — random deepening exactly where
//     exhaustive search stopped. Conversely, a simulation run before the
//     checker leaves its discoveries in the store, and the checker's
//     frontier-batched BFS seeds from them.
//   * A TimeBox scheduler. One wall-clock budget is split across the
//     phases by weight, rebalanced at each phase start: an early phase
//     that exhausts its state space under its allotment automatically
//     donates the leftover to the phases behind it (the allotment is
//     computed from *remaining* wall clock, not the original box). The
//     per-phase allotment is visible as ExplorationStats::budget_seconds.
//
// Phase order is exhaustive-first: BFS while it is cheap, then weighted
// simulation spending whatever the checker left, then trace validation,
// then — when registered via set_nemesis_phase() — a driver-level
// fault-injection (nemesis) phase sharing the same box, so one wall-clock
// budget spans checker -> simulator -> validator -> nemesis. Phases can
// also be run individually (run_checker() / run_simulator() /
// run_validator() / run_nemesis()) for campaigns that interleave their
// own work; run() restarts the box clock, individual calls do not.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/model_checker.h"
#include "spec/sharded_state_store.h"
#include "spec/simulator.h"
#include "spec/spec.h"
#include "spec/stats.h"
#include "spec/trace_validator.h"
#include "spec/worker_pool.h"
#include "util/json.h"

namespace scv::spec
{
  /// Splits one wall-clock budget across a fixed sequence of phases by
  /// weight, with adaptive rebalancing: each phase's allotment is
  ///
  ///   remaining_wall_clock * w_i / (w_i + w_{i+1} + ... + w_n)
  ///
  /// computed when the phase *starts*. A phase that finishes early leaves
  /// more remaining clock, so later phases' allotments grow — leftover
  /// budget flows forward without explicit bookkeeping.
  class TimeBox
  {
  public:
    TimeBox(double total_seconds, std::vector<double> weights) :
      budget_(Budget::Caps{total_seconds, UINT64_MAX, UINT64_MAX}),
      weights_(std::move(weights))
    {}

    /// Restarts the box clock and rewinds to the first phase.
    void restart()
    {
      budget_.restart();
      next_ = 0;
    }

    /// Starts the next phase; returns its wall-clock allotment in seconds.
    /// Phases past the configured weights get everything that remains.
    [[nodiscard]] double begin_phase()
    {
      double tail = 0.0;
      for (size_t i = next_; i < weights_.size(); ++i)
      {
        tail += weights_[i];
      }
      const double w = next_ < weights_.size() ? weights_[next_] : 1.0;
      next_++;
      const double remaining = budget_.remaining_seconds();
      return tail > 0.0 ? remaining * (w / tail) : remaining;
    }

    [[nodiscard]] const Budget& budget() const
    {
      return budget_;
    }

  private:
    Budget budget_;
    std::vector<double> weights_;
    size_t next_ = 0;
  };

  /// One phase of a campaign, reduced to what Table-1-style output needs.
  struct PhaseReport
  {
    EngineId engine = EngineId::None;
    /// False when the phase was skipped (e.g. a validator phase with no
    /// traces registered).
    bool ran = false;
    bool ok = true;
    /// The TimeBox allotment the phase started with. Compare against the
    /// phase's naive share of the box to see leftover reassignment.
    double allotted_seconds = 0.0;
    /// States this engine admitted to the shared store first — its
    /// contribution to the union (store origin_count delta).
    uint64_t store_new = 0;
    ExplorationStats stats;
  };

  /// Campaign outcome: per-phase reports plus the unioned coverage. The
  /// union is the shared store's size, so union <= sum of the engines'
  /// standalone distinct counts (shared states counted once) and
  /// union >= every single engine's contribution.
  struct CampaignReport
  {
    std::vector<PhaseReport> phases;
    /// Distinct states across all engines (the shared store's size).
    uint64_t union_distinct = 0;
    /// Wall clock actually consumed.
    double total_seconds = 0.0;
    /// The configured box.
    double box_seconds = 0.0;

    [[nodiscard]] const PhaseReport* phase(EngineId engine) const
    {
      for (const PhaseReport& p : phases)
      {
        if (p.engine == engine)
        {
          return &p;
        }
      }
      return nullptr;
    }

    /// Per-engine + union coverage table (Table-1-style, human-readable).
    [[nodiscard]] std::string summary() const;
    /// The same as a JSON object (bench output, CI assertions).
    [[nodiscard]] std::string to_json() const;
    /// The same as a structured value, for embedding in larger JSON
    /// documents (e.g. bench_util BenchReport fields).
    [[nodiscard]] json::Value to_json_value() const;
  };

  template <SpecState S>
  class Campaign
  {
  public:
    struct Options
    {
      Options()
      {
        // The box governs phase deadlines; engine-local time budgets act
        // as additional caps only if explicitly tightened.
        sim.time_budget_seconds = 1e18;
      }

      /// The whole campaign's wall-clock box, split by the weights below.
      double total_seconds = 10.0;
      /// Phase weights (need not sum to 1); exhaustive-first default.
      double check_weight = 0.5;
      double sim_weight = 0.3;
      double validate_weight = 0.2;
      /// Weight of the optional nemesis phase (set_nemesis_phase). The
      /// default 0 leaves the first three allotments untouched; a
      /// registered nemesis phase then runs on whatever the earlier
      /// phases left of the box.
      double nemesis_weight = 0.0;
      /// The shared store's storage mode, byte ceiling and spill
      /// directory (docs/SPEC.md "Store modes"). Fingerprint-only
      /// campaigns drop state bodies once states leave each engine's
      /// frontier, so cross-engine seeding only draws from body-live
      /// records and counterexamples on cross-engine chains may be
      /// partial (verdicts are unaffected).
      StoreOptions store;
      /// Engine knobs. time_budget_seconds in each is combined with the
      /// phase allotment by min(), so it only matters when tighter.
      /// (Each engine's own StoreOptions apply to its private stores —
      /// e.g. the validator's search store — not to the shared one.)
      CheckLimits check;
      SimOptions sim;
      ValidationOptions validate;
    };

    /// A registered trace for the validation phase.
    struct TraceCase
    {
      std::string name;
      std::vector<S> init;
      std::vector<TraceLineExpander<S>> lines;
      std::function<void(const S&, const Emit<S>&)> fault;
    };

    /// A pluggable fourth phase: driver-level fault-injection fuzzing
    /// (or anything else) run under the campaign's shared TimeBox. The
    /// callback gets a child Budget carved from the box and returns
    /// checker-style results (ok == nothing found wrong).
    using NemesisPhase = std::function<EngineReport(const Budget& budget)>;

    explicit Campaign(const SpecDef<S>& spec, Options options = {}) :
      spec_(spec),
      options_(options),
      store_(shards_for(options), store_options_for(options)),
      box_(
        options.total_seconds,
        {options.check_weight,
         options.sim_weight,
         options.validate_weight,
         options.nemesis_weight})
    {}

    /// Registers a trace for the validation phase (validated in
    /// registration order; the phase allotment is split across them).
    void add_trace(
      std::string name,
      std::vector<S> init,
      std::vector<TraceLineExpander<S>> lines,
      std::function<void(const S&, const Emit<S>&)> fault = nullptr)
    {
      traces_.push_back(
        {std::move(name), std::move(init), std::move(lines), std::move(fault)});
    }

    /// Registers the optional nemesis phase; run() then spans
    /// checker -> simulator -> validator -> nemesis under one box.
    void set_nemesis_phase(NemesisPhase phase)
    {
      nemesis_ = std::move(phase);
    }

    /// The whole portfolio: checker, then simulator (seeded from the
    /// checker's leftover frontier), then every registered trace, then —
    /// when one is registered — the nemesis phase. Restarts the box
    /// clock; returns the final report.
    CampaignReport run()
    {
      box_.restart();
      report_ = {};
      (void)run_checker();
      (void)run_simulator();
      (void)run_validator();
      if (nemesis_)
      {
        (void)run_nemesis();
      }
      return report();
    }

    /// Phase 1: exhaustive BFS over the shared store. An incomplete run
    /// (budget cut) leaves its unexpanded frontier for the simulator.
    CheckResult<S> run_checker()
    {
      const double allot = box_.begin_phase();
      CheckLimits limits = options_.check;
      limits.time_budget_seconds =
        std::min(limits.time_budget_seconds, allot);
      ModelChecker<S> checker(spec_, limits);
      checker.attach_store(&store_, EngineId::Checker);
      const uint64_t before = contribution(EngineId::Checker);
      CheckResult<S> result = checker.check();
      frontier_ = checker.take_frontier();
      record_phase(
        EngineId::Checker,
        result.ok,
        allot,
        contribution(EngineId::Checker) - before,
        result.stats);
      return result;
    }

    /// Phase 2: weighted simulation over the shared store, spending
    /// whatever the checker left of the box. Walks start from the
    /// checker's leftover frontier when there is one — random deepening
    /// where exhaustive search stopped.
    SimResult<S> run_simulator()
    {
      const double allot = box_.begin_phase();
      SimOptions opts = options_.sim;
      opts.time_budget_seconds = std::min(opts.time_budget_seconds, allot);
      Simulator<S> sim(spec_, opts);
      sim.attach_store(&store_, EngineId::Simulator);
      if (!frontier_.empty())
      {
        sim.set_walk_seeds(frontier_);
      }
      const uint64_t before = contribution(EngineId::Simulator);
      SimResult<S> result = sim.run();
      record_phase(
        EngineId::Simulator,
        result.ok,
        allot,
        contribution(EngineId::Simulator) - before,
        result.stats);
      return result;
    }

    /// Phase 3: every registered trace, the phase allotment split evenly
    /// across the traces still to run (an early finisher's leftover flows
    /// to the rest). Candidate states feed the shared store as coverage.
    std::vector<ValidationResult<S>> run_validator()
    {
      const double allot = box_.begin_phase();
      std::vector<ValidationResult<S>> results;
      if (traces_.empty())
      {
        PhaseReport skipped;
        skipped.engine = EngineId::Validator;
        skipped.ran = false;
        skipped.allotted_seconds = allot;
        report_.phases.push_back(skipped);
        return results;
      }

      const Budget phase(Budget::Caps{allot, UINT64_MAX, UINT64_MAX});
      const uint64_t before = contribution(EngineId::Validator);
      ExplorationStats merged;
      uint64_t distinct = 0;
      bool all_ok = true;
      bool all_complete = true;
      for (size_t i = 0; i < traces_.size(); ++i)
      {
        ValidationOptions opts = options_.validate;
        const double share =
          phase.remaining_seconds() / static_cast<double>(traces_.size() - i);
        opts.time_budget_seconds =
          std::min(opts.time_budget_seconds, share);
        TraceCase& trace = traces_[i];
        TraceValidator<S> validator(trace.init, trace.lines, opts);
        if (trace.fault)
        {
          validator.set_fault_expander(trace.fault);
        }
        validator.set_coverage_store(&store_, EngineId::Validator);
        results.push_back(validator.run());
        const ValidationResult<S>& r = results.back();
        all_ok = all_ok && r.ok;
        all_complete = all_complete && r.stats.complete;
        distinct += r.stats.distinct_states;
        merged.absorb_counts(r.stats);
        merged.seconds += r.stats.seconds;
        merged.budget_seconds += r.stats.budget_seconds;
      }
      merged.distinct_states = distinct;
      merged.complete = all_complete;
      record_phase(
        EngineId::Validator,
        all_ok,
        allot,
        contribution(EngineId::Validator) - before,
        merged);
      return results;
    }

    /// Phase 4 (optional): driver-level fault injection under the same
    /// box. The callback's Budget is a child of the box budget, so the
    /// campaign's cooperative stop and remaining wall clock bound it; the
    /// phase contributes no spec states to the shared store.
    EngineReport run_nemesis()
    {
      const double allot = box_.begin_phase();
      EngineReport result;
      result.engine = EngineId::Nemesis;
      if (!nemesis_)
      {
        PhaseReport skipped;
        skipped.engine = EngineId::Nemesis;
        skipped.ran = false;
        skipped.allotted_seconds = allot;
        report_.phases.push_back(skipped);
        return result;
      }
      const Budget phase = box_.budget().child(allot);
      result = nemesis_(phase);
      result.engine = EngineId::Nemesis;
      record_phase(EngineId::Nemesis, result.ok, allot, 0, result.stats);
      return result;
    }

    /// Snapshot of the campaign so far (phases run, union coverage,
    /// elapsed clock). run() returns the same thing after all phases.
    [[nodiscard]] CampaignReport report() const
    {
      CampaignReport out = report_;
      out.union_distinct = store_.size();
      out.total_seconds = box_.budget().elapsed();
      out.box_seconds = options_.total_seconds;
      return out;
    }

    /// The shared store (quiescent access between phases only).
    [[nodiscard]] const ShardedStateStore<S>& store() const
    {
      return store_;
    }

    /// States `engine` admitted to the shared store first.
    [[nodiscard]] uint64_t contribution(EngineId engine) const
    {
      return store_.origin_count(static_cast<uint8_t>(engine));
    }

    /// The checker's leftover frontier (empty after a complete check).
    [[nodiscard]] const std::vector<S>& frontier() const
    {
      return frontier_;
    }

  private:
    /// The shared store must dedup by fingerprint alone when any spec
    /// engine canonicalizes (orbit siblings share a canonical fingerprint
    /// but differ under operator== — store_options.h). The validator's
    /// coverage tap stays concrete-keyed; mixing concrete and canonical
    /// keys in one store is fine because dedup is per-key.
    static StoreOptions store_options_for(const Options& options)
    {
      StoreOptions opts = options.store;
      if (options.check.symmetry || options.sim.symmetry)
      {
        opts.dedup_by_fingerprint = true;
      }
      return opts;
    }

    static size_t shards_for(const Options& options)
    {
      const unsigned workers = std::max(
        {resolve_worker_count(options.check.threads),
         resolve_worker_count(options.sim.threads),
         resolve_worker_count(options.validate.threads)});
      return WorkerPool(workers).stripe_count();
    }

    void record_phase(
      EngineId engine,
      bool ok,
      double allotted,
      uint64_t store_new,
      const ExplorationStats& stats)
    {
      PhaseReport phase;
      phase.engine = engine;
      phase.ran = true;
      phase.ok = ok;
      phase.allotted_seconds = allotted;
      phase.store_new = store_new;
      phase.stats = stats;
      report_.phases.push_back(std::move(phase));
      // Phase boundary: every engine has joined its workers, so the
      // shared store is quiescent — frozen arena blocks may spill.
      store_.maybe_spill();
    }

    const SpecDef<S>& spec_;
    Options options_;
    ShardedStateStore<S> store_;
    TimeBox box_;
    std::vector<TraceCase> traces_;
    std::vector<S> frontier_;
    NemesisPhase nemesis_;
    CampaignReport report_;
  };
}
