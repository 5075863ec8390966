// Randomized simulation of a spec (§4).
//
// The paper found exhaustive model checking too slow for CI once the
// consensus spec modeled reconfiguration, and fell back to simulation: a
// time-quota'd random walk over behaviors up to a given depth. Coverage is
// improved by *action weighting* — failure actions (message drops,
// timeouts) are down-weighted so walks make more forward progress. The
// weight field on Action feeds the weighted pick here; a weight override
// map supports the manual-vs-uniform weighting experiment
// (bench/sim_weighting).
//
// One engine, one entry point: Simulator::run() (and the free function
// simulate()) fans independent seeded walks across a WorkerPool of
// SimOptions::threads workers. Worker w runs the one walk loop with seed
// = base_seed + w and its share of max_behaviors; one worker is that loop
// run inline with w = 0, so per-seed walks are bit-reproducible. Results
// are merged at the end (counts summed, coverage maps merged, per-worker
// fingerprint sets unioned so distinct_states measures *joint*
// coverage). A violation in any worker raises a shared stop flag; the
// lowest-indexed violating worker's counterexample wins. Each run()
// starts from fresh generators and Q tables, so repeating it repeats the
// run.
//
// Campaign mode (campaign.h): attach_store() admits every visited state
// into a shared ShardedStateStore (tagged with the simulator's EngineId),
// so cross-engine coverage is unioned instead of double-counted —
// distinct_states then reports only states *this run* discovered first.
// set_walk_seeds() starts walks from the checker's leftover BFS frontier
// instead of the spec's initial states.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "spec/budget.h"
#include "spec/engine.h"
#include "spec/expander.h"
#include "spec/sharded_state_store.h"
#include "spec/spec.h"
#include "spec/stats.h"
#include "spec/worker_pool.h"
#include "util/rng.h"

namespace scv::spec
{
  enum class WeightingMode
  {
    /// All enabled actions equally likely.
    Uniform,
    /// Static per-action weights from the spec (the paper's manual
    /// weighting of failure actions, §4).
    Static,
    /// Q-learning over (state features, action) pairs, rewarding novel
    /// states — the paper's attempt at automatic weighting ("we were
    /// unable to find the right set of variables as input to Q-Learning's
    /// state hash function H that achieved better coverage at the same
    /// cost compared to manual weighting").
    QLearning,
  };

  struct SimOptions : EngineOptions
  {
    SimOptions()
    {
      // Simulation is quota-driven: default to a 1-second box rather than
      // the engine-wide "effectively unlimited".
      time_budget_seconds = 1.0;
    }

    uint64_t seed = 1;
    uint64_t max_behaviors = UINT64_MAX;
    /// Bounds each walk rather than the whole run.
    uint64_t max_depth = 50;
    WeightingMode mode = WeightingMode::Static;

    /// The exploration-core budget: work counter = behaviors started.
    [[nodiscard]] Budget::Caps budget_caps() const
    {
      return make_caps(max_behaviors, max_depth);
    }
  };

  template <SpecState S>
  struct SimResult : EngineReport
  {
    SimResult()
    {
      engine = EngineId::Simulator;
    }

    std::optional<Counterexample<S>> counterexample;
    uint64_t behaviors = 0;
    /// The visited fingerprint set, unioned across workers to measure
    /// joint coverage.
    std::unordered_set<uint64_t> distinct_fingerprints;
  };

  template <SpecState S>
  class Simulator
  {
  public:
    Simulator(const SpecDef<S>& spec, SimOptions options = {}) :
      spec_(spec),
      options_(options),
      expander_(&spec_)
    {
      expander_.enable_symmetry(options_.symmetry);
    }

    /// Optional per-state observer for domain-specific coverage metrics.
    /// Calls are serialized on an internal mutex, so the callback itself
    /// need not be thread-safe.
    void set_observer(std::function<void(const S&)> observer)
    {
      observer_ = std::move(observer);
    }

    /// Q-learning state-feature hash H: maps a state to the bucket whose
    /// action values are learned. Defaults to the full fingerprint; the
    /// paper's difficulty was exactly choosing a coarser H that
    /// generalizes (§4). Shared by every worker (each worker learns its
    /// own Q table); must be a pure function of the state.
    void set_q_features(std::function<uint64_t(const S&)> features)
    {
      q_features_ = std::move(features);
    }

    /// Campaign mode: admit every visited state into `store` (shared with
    /// other engines, never cleared), tagged `origin`. distinct_states in
    /// the result then counts only first discoveries by this run — states
    /// another engine already found are not re-counted. The store must
    /// outlive the simulator.
    void attach_store(
      ShardedStateStore<S>* store, EngineId origin = EngineId::Simulator)
    {
      store_ = store;
      expander_.set_origin(static_cast<uint8_t>(origin));
    }

    /// Campaign mode: start walks from these states (chosen uniformly)
    /// instead of the spec's initial states — typically the checker's
    /// leftover BFS frontier. Empty reverts to spec_.init.
    void set_walk_seeds(std::vector<S> seeds)
    {
      seeds_ = std::move(seeds);
    }

    /// Unified entry point: SimOptions::threads sets the worker count
    /// (see docs/SPEC.md "threads semantics").
    SimResult<S> run()
    {
      const WorkerPool pool(options_.threads);
      const unsigned workers = pool.size();

      // Workers apply their own share of the caps; this one only times the
      // merged run.
      const Budget budget(options_.budget_caps());
      std::atomic<bool> stop{false};
      std::vector<SimResult<S>> results(workers);
      std::vector<SymmetryTally> tallies(workers);

      pool.run([&](unsigned w) {
        results[w] = walk(w, workers, stop, tallies[w]);
        if (!results[w].ok)
        {
          stop.store(true, std::memory_order_release);
        }
      });

      SimResult<S> merged;
      uint64_t fresh = 0;
      for (const SymmetryTally& tally : tallies)
      {
        tally.add_to(merged.stats);
      }
      for (SimResult<S>& r : results)
      {
        merged.behaviors += r.behaviors;
        fresh += r.stats.distinct_states;
        merged.stats.absorb_counts(r.stats);
        if (!r.ok && merged.ok)
        {
          merged.ok = false;
          merged.counterexample = std::move(r.counterexample);
        }
        merged.distinct_fingerprints.merge(r.distinct_fingerprints);
      }
      // A shared store dedups across workers globally, so summing the
      // workers' first-discovery counts is exact; otherwise joint coverage
      // is the unioned fingerprint set.
      merged.stats.distinct_states =
        store_ != nullptr ? fresh : merged.distinct_fingerprints.size();
      merged.stats.seconds = budget.elapsed();
      if (budget.caps().time_budget_seconds < 1e17)
      {
        merged.stats.budget_seconds = budget.caps().time_budget_seconds;
      }
      if (store_ != nullptr)
      {
        merged.stats.store_bytes = store_->store_bytes();
        merged.stats.spilled_bytes = store_->spilled_bytes();
        merged.stats.rehash_count = store_->rehash_count();
      }
      merged.stats.complete = false;
      return merged;
    }

  private:
    using Store = ShardedStateStore<S>;
    using Id = typename Store::Id;
    using QTable = std::unordered_map<uint64_t, double>;

    // Q-learning hyperparameters.
    static constexpr double q_learning_rate = 0.3;
    static constexpr double q_discount = 0.7;
    static constexpr double q_explore_probability = 0.1;

    /// Worker w's walks: seed base + w, its share of max_behaviors. The
    /// result carries this worker's counts; stats.distinct_states counts
    /// its first discoveries in the attached store (run() settles the
    /// storeless count from the fingerprint union).
    SimResult<S> walk(
      unsigned w,
      unsigned workers,
      const std::atomic<bool>& stop,
      SymmetryTally& tally)
    {
      // Time (or the shared stop flag) exhausts a behavior mid-walk; the
      // behavior cap only stops *starting* new walks.
      Budget budget(options_.make_caps(
        behaviors_share(workers, w), options_.max_depth));
      budget.set_stop_flag(&stop);
      Rng rng(options_.seed + w);
      QTable q;
      SimResult<S> result;
      const std::vector<S>& starts = seeds_.empty() ? spec_.init : seeds_;

      const auto admit = [&](const S& state, Id parent, uint32_t action,
                             uint32_t depth) {
        const auto ins =
          expander_.admit(*store_, state, parent, action, depth, &tally);
        result.stats.distinct_states += ins.inserted ? 1 : 0;
        // The walk keeps its own copy of every state and builds
        // counterexamples engine-side, so a fingerprint-only store can
        // retire the body immediately (a no-op in full mode).
        if (ins.inserted)
        {
          store_->drop_body(ins.id);
        }
        return ins.id;
      };

      while (!budget.exhausted(result.behaviors))
      {
        result.behaviors++;
        // Pick a walk start uniformly.
        S current = starts[rng.below(starts.size())];
        if (!seeds_.empty())
        {
          result.stats.seeded_states++;
        }
        Id cur_id = Store::no_parent;
        if (store_ != nullptr)
        {
          cur_id = admit(current, Store::no_parent, Store::init_action, 0);
        }
        note_state(current, result, tally);

        std::vector<TraceStep<S>> steps;
        steps.push_back({"<init>", current});

        for (uint64_t depth = 0; !budget.depth_exceeded(depth); ++depth)
        {
          if (!spec_.within_constraint(current))
          {
            break;
          }
          // Expand every action; pick among enabled ones according to the
          // weighting mode, then a successor uniformly within the chosen
          // action.
          std::vector<std::vector<S>> successors(spec_.actions.size());
          std::vector<bool> enabled(spec_.actions.size(), false);
          bool any = false;
          for (size_t a = 0; a < spec_.actions.size(); ++a)
          {
            spec_.actions[a].expand(current, [&](const S& next) {
              successors[a].push_back(next);
            });
            result.stats.generated_states += successors[a].size();
            enabled[a] = !successors[a].empty();
            any = any || enabled[a];
          }
          if (!any)
          {
            break; // deadlock
          }
          const uint64_t bucket = q_bucket(current);
          const auto picked = pick_action(enabled, bucket, rng, q);
          if (!picked.has_value())
          {
            break; // all enabled actions have zero weight
          }
          const size_t a = *picked;
          const S next = successors[a][rng.below(successors[a].size())];
          result.stats.transitions++;
          result.stats.action_coverage[spec_.actions[a].name]++;

          if (options_.mode == WeightingMode::QLearning)
          {
            // Reward novelty; bootstrap from the best known value of the
            // successor bucket. Keyed like note_state() so the distinct
            // lookup matches (canonical when symmetry is on).
            const uint64_t next_fp = expander_.fingerprint_of(next, &tally);
            const double reward =
              result.distinct_fingerprints.contains(next_fp) ? 0.0 : 1.0;
            const uint64_t next_bucket =
              q_features_ ? q_features_(next) : next_fp;
            double best_next = 0.0;
            for (size_t a2 = 0; a2 < spec_.actions.size(); ++a2)
            {
              best_next = std::max(best_next, q_value(q, next_bucket, a2));
            }
            const double old = q_value(q, bucket, a);
            q[q_key(bucket, a)] =
              old + q_learning_rate * (reward + q_discount * best_next - old);
          }

          for (const auto& prop : spec_.action_properties)
          {
            if (!prop.check(current, next))
            {
              result.ok = false;
              result.counterexample = make_cex(steps, prop.name);
              result.counterexample->steps.push_back(
                {spec_.actions[a].name, next});
              return result;
            }
          }

          current = next;
          if (store_ != nullptr)
          {
            cur_id = admit(
              current,
              cur_id,
              static_cast<uint32_t>(a),
              static_cast<uint32_t>(depth + 1));
          }
          steps.push_back({spec_.actions[a].name, current});
          note_state(current, result, tally);
          result.stats.max_depth =
            std::max<uint64_t>(result.stats.max_depth, depth + 1);

          for (const auto& inv : spec_.invariants)
          {
            if (!inv.check(current))
            {
              result.ok = false;
              result.counterexample = make_cex(steps, inv.name);
              return result;
            }
          }
          if (budget.time_exhausted())
          {
            break;
          }
        }
      }
      return result;
    }

    /// Splits options_.max_behaviors across workers (first workers take
    /// the remainder); an unlimited budget stays unlimited everywhere.
    [[nodiscard]] uint64_t behaviors_share(unsigned workers, unsigned w) const
    {
      if (options_.max_behaviors == UINT64_MAX)
      {
        return UINT64_MAX;
      }
      const uint64_t base = options_.max_behaviors / workers;
      const uint64_t remainder = options_.max_behaviors % workers;
      return base + (w < remainder ? 1 : 0);
    }

    [[nodiscard]] uint64_t q_bucket(const S& state) const
    {
      return q_features_ ? q_features_(state) : fingerprint(state);
    }

    [[nodiscard]] static uint64_t q_key(uint64_t bucket, size_t action)
    {
      return hash_combine(bucket, static_cast<uint64_t>(action) + 1);
    }

    [[nodiscard]] static double q_value(
      const QTable& q, uint64_t bucket, size_t action)
    {
      const auto it = q.find(q_key(bucket, action));
      return it != q.end() ? it->second : 0.0;
    }

    std::optional<size_t> pick_action(
      const std::vector<bool>& enabled,
      uint64_t bucket,
      Rng& rng,
      const QTable& q) const
    {
      std::vector<double> weights(enabled.size(), 0.0);
      switch (options_.mode)
      {
        case WeightingMode::Uniform:
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            weights[a] = enabled[a] ? 1.0 : 0.0;
          }
          break;
        case WeightingMode::Static:
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            weights[a] = enabled[a] ? spec_.actions[a].weight : 0.0;
          }
          break;
        case WeightingMode::QLearning:
        {
          if (rng.chance(q_explore_probability))
          {
            for (size_t a = 0; a < enabled.size(); ++a)
            {
              weights[a] = enabled[a] ? 1.0 : 0.0;
            }
            break;
          }
          // Greedy: the enabled action with the highest learned value
          // (ties broken uniformly).
          double best = -1.0;
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            if (enabled[a])
            {
              best = std::max(best, q_value(q, bucket, a));
            }
          }
          for (size_t a = 0; a < enabled.size(); ++a)
          {
            weights[a] = enabled[a] && q_value(q, bucket, a) >= best - 1e-12 ?
              1.0 :
              0.0;
          }
          break;
        }
      }
      double total = 0;
      for (const double w : weights)
      {
        total += w;
      }
      if (total <= 0)
      {
        return std::nullopt;
      }
      return rng.weighted_pick(weights);
    }

    void note_state(
      const S& state, SimResult<S>& result, SymmetryTally& tally)
    {
      // Canonical when symmetry is on, so distinct counts (and the
      // cross-worker union) measure coverage modulo the orbit.
      result.distinct_fingerprints.insert(
        expander_.fingerprint_of(state, &tally));
      if (observer_)
      {
        std::lock_guard<std::mutex> lock(observer_mu_);
        observer_(state);
      }
    }

    static Counterexample<S> make_cex(
      const std::vector<TraceStep<S>>& steps, const std::string& property)
    {
      Counterexample<S> cex;
      cex.property = property;
      cex.steps = steps;
      return cex;
    }

    const SpecDef<S>& spec_;
    SimOptions options_;
    Expander<S> expander_;
    std::function<void(const S&)> observer_;
    std::mutex observer_mu_;
    std::function<uint64_t(const S&)> q_features_;
    Store* store_ = nullptr;
    std::vector<S> seeds_;
  };

  /// Entry point: SimOptions::threads sets the worker count.
  template <SpecState S>
  SimResult<S> simulate(const SpecDef<S>& spec, SimOptions options = {})
  {
    Simulator<S> sim(spec, options);
    return sim.run();
  }
}
