// Exhaustive consensus model checking phase: BFS of the consensus spec
// to completion under symmetry reduction with the fingerprint-only store.
//
// The traced run wraps the SpecDef's hooks (every Action::expand, the
// Symmetry apply/signature pair, the invariants and action properties,
// and the state constraint) and sums their self time per worker thread.
// Per-state spans would outnumber the states, so the hooks keep totals.
#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "spec/model_checker.h"
#include "specs/consensus/spec.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench
{
  namespace
  {
    using scv::specs::ccfraft::State;
    using SpecDef = scv::spec::SpecDef<State>;

    scv::specs::ccfraft::Params model(uint8_t max_log_len)
    {
      scv::specs::ccfraft::Params p;
      p.n_nodes = 3;
      p.max_term = 2;
      p.max_requests = 1;
      p.max_log_len = max_log_len;
      p.max_batch = 1;
      p.max_network = 1;
      p.max_copies = 1;
      return p;
    }

    /// Workers of the full check and of every traced (hooked) check.
    constexpr unsigned kParallelWorkers = 4;

    struct Plan
    {
      uint8_t max_log_len;
      /// Distinct states of the bounded model, the same at every worker
      /// count; anything else is a wrong answer.
      uint64_t distinct;
      /// The probe checks on one worker: it watches per-state cost on
      /// workloads that do not measure the checker, and one worker keeps
      /// scheduling noise out of it.
      unsigned workers;
      /// Complete checks an untraced run makes at least.
      size_t units;
    };
    constexpr Plan kPrimary{4, 5'964'926, kParallelWorkers, 1};
    constexpr Plan kProbe{3, 245'480, 1, 5};

    SpecDef build(uint8_t max_log_len)
    {
      const auto params = model(max_log_len);
      SpecDef spec = scv::specs::ccfraft::build_spec(params);
      spec.init = scv::specs::ccfraft::all_initial_states(params);
      return spec;
    }

    scv::spec::CheckResult<State> check(const SpecDef& spec, unsigned workers)
    {
      scv::spec::CheckLimits limits;
      limits.threads = workers;
      limits.symmetry = true;
      limits.store.mode = scv::spec::StoreMode::fingerprint_only;
      return scv::spec::model_check(spec, limits);
    }

    // --- hook timing -------------------------------------------------------

    enum Hook : size_t
    {
      Expand,
      /// The engine's emit callback inside expand: admission (fingerprint,
      /// store insert) around the hooked canonicalize/invariant calls.
      Admit,
      Canonicalize,
      Invariants,
      Constraint,
      kHooks,
    };

    /// Self nanoseconds per hook, summed over every thread that ran one.
    class HookTimes
    {
    public:
      struct Local
      {
        uint64_t self_ns[kHooks] = {};
        /// Hooked time inside the innermost open hook.
        uint64_t child_ns = 0;
        Local()
        {
          instance().attach(this);
        }
        ~Local()
        {
          instance().detach(this);
        }
        Local(const Local&) = delete;
        Local& operator=(const Local&) = delete;
      };

      static HookTimes& instance()
      {
        static HookTimes times;
        return times;
      }

      static Local& local()
      {
        thread_local Local l;
        return l;
      }

      /// Runs f as hook `h`, charging its time minus nested hooks to h.
      template <class F>
      static void timed(Hook h, F&& f)
      {
        Local& l = local();
        const uint64_t outer_child = l.child_ns;
        l.child_ns = 0;
        const uint64_t start = now_ns();
        f();
        const uint64_t elapsed = now_ns() - start;
        l.self_ns[h] += elapsed - std::min(elapsed, l.child_ns);
        l.child_ns = outer_child + elapsed;
      }

      void reset()
      {
        const std::lock_guard<std::mutex> lock(mu_);
        std::fill(std::begin(done_), std::end(done_), 0);
        for (Local* l : live_)
        {
          std::fill(std::begin(l->self_ns), std::end(l->self_ns), 0);
        }
      }

      /// Totals over exited threads and live ones; call while no hooked
      /// code runs.
      std::vector<double> seconds()
      {
        const std::lock_guard<std::mutex> lock(mu_);
        std::vector<double> out(kHooks);
        for (size_t h = 0; h < kHooks; ++h)
        {
          uint64_t ns = done_[h];
          for (const Local* l : live_)
          {
            ns += l->self_ns[h];
          }
          out[h] = static_cast<double>(ns) / 1e9;
        }
        return out;
      }

    private:
      void attach(Local* l)
      {
        const std::lock_guard<std::mutex> lock(mu_);
        live_.push_back(l);
      }

      void detach(Local* l)
      {
        const std::lock_guard<std::mutex> lock(mu_);
        for (size_t h = 0; h < kHooks; ++h)
        {
          done_[h] += l->self_ns[h];
        }
        live_.erase(std::find(live_.begin(), live_.end(), l));
      }

      std::mutex mu_;
      uint64_t done_[kHooks] = {};
      std::vector<Local*> live_;
    };

    /// A copy of `spec` whose hooks report to HookTimes.
    SpecDef hooked(const SpecDef& spec)
    {
      using Emit = scv::spec::Emit<State>;
      SpecDef out = spec;
      for (auto& action : out.actions)
      {
        action.expand = [inner = action.expand](
                          const State& s, const Emit& emit) {
          HookTimes::timed(Expand, [&] {
            inner(s, [&](const State& next) {
              HookTimes::timed(Admit, [&] { emit(next); });
            });
          });
        };
      }
      for (auto& inv : out.invariants)
      {
        inv.check = [inner = inv.check](const State& s) {
          bool ok = false;
          HookTimes::timed(Invariants, [&] { ok = inner(s); });
          return ok;
        };
      }
      for (auto& prop : out.action_properties)
      {
        prop.check = [inner = prop.check](const State& a, const State& b) {
          bool ok = false;
          HookTimes::timed(Invariants, [&] { ok = inner(a, b); });
          return ok;
        };
      }
      if (out.constraint)
      {
        out.constraint = [inner = out.constraint](const State& s) {
          bool ok = false;
          HookTimes::timed(Constraint, [&] { ok = inner(s); });
          return ok;
        };
      }
      auto& sym = out.symmetry;
      if (sym.apply)
      {
        sym.apply = [inner = sym.apply](
                      const State& s, const scv::spec::Perm& p) {
          std::optional<State> result;
          HookTimes::timed(Canonicalize, [&] { result.emplace(inner(s, p)); });
          return std::move(*result);
        };
      }
      if (sym.signature)
      {
        sym.signature = [inner = sym.signature](const State& s, size_t i) {
          uint64_t sig = 0;
          HookTimes::timed(Canonicalize, [&] { sig = inner(s, i); });
          return sig;
        };
      }
      return out;
    }

    double seconds_since(uint64_t start)
    {
      return static_cast<double>(now_ns() - start) / 1e9;
    }
  }

  void run_check(bool primary, RunContext& ctx)
  {
    Report& report = ctx.report;
    const Plan& plan = primary ? kPrimary : kProbe;
    const uint64_t expected = plan.distinct;

    // Set-up: build the spec and its initial-state set.
    std::vector<double> setups;
    SpecDef spec;
    for (int i = 0; i < 5; ++i)
    {
      const uint64_t start = now_ns();
      spec = build(plan.max_log_len);
      setups.push_back(seconds_since(start));
    }
    ctx.setup_s = median(setups);

    const auto verify = [&](const scv::spec::CheckResult<State>& r,
                            unsigned workers) {
      const std::string at = "mc (max_log_len=" +
        std::to_string(plan.max_log_len) + ", " + std::to_string(workers) +
        " workers): ";
      report.check(r.ok, at + "verdict is not OK");
      report.check(r.stats.complete, at + "run did not complete");
      report.check(
        r.stats.distinct_states == expected,
        at + std::to_string(r.stats.distinct_states) +
          " distinct states, expected " + std::to_string(expected));
    };
    const auto timed_check = [&](const SpecDef& s, unsigned workers) {
      const SpanRecorder::Scope span(ctx.spans, "spec.model_check");
      const uint64_t start = now_ns();
      const auto result = check(s, workers);
      const double wall = seconds_since(start);
      verify(result, workers);
      return std::make_pair(wall, result.stats);
    };

    // One unit: a complete untraced check. The traced run needs one, for
    // the speed-up and the tracing overhead.
    std::vector<double> unit_s;
    const uint64_t phase_start = now_ns();
    const size_t min_units = ctx.trace ? 1 : plan.units;
    do
    {
      unit_s.push_back(timed_check(spec, plan.workers).first);
    } while (
      unit_s.size() < min_units ||
      (primary && !ctx.trace && seconds_since(phase_start) < ctx.seconds));
    const double wall = median(unit_s);
    std::fprintf(
      stderr,
      "check: %zu unit(s) of %llu states on %u worker(s), median %.2fs, "
      "peak RSS %.0f MB\n",
      unit_s.size(),
      static_cast<unsigned long long>(expected),
      plan.workers,
      wall,
      peak_rss_mb());

    if (primary)
    {
      report.attempted = 1;
      report.failed = report.correct() ? 0 : 1;
    }
    if (!ctx.trace)
    {
      report.metric(
        "check.states_per_s", static_cast<double>(expected) / wall, "1/s");
      report.metric("check.peak_rss_mb", peak_rss_mb(), "MB");
      return;
    }

    // Traced: untraced checks on one worker and on kParallelWorkers give
    // the speed-up, then a hooked check on kParallelWorkers.
    const double one_wall =
      plan.workers == 1 ? wall : timed_check(spec, 1).first;
    const double parallel_wall = plan.workers == kParallelWorkers ?
      wall :
      timed_check(spec, kParallelWorkers).first;
    const SpecDef traced = hooked(spec);
    HookTimes::instance().reset();
    const auto [traced_wall, st] = timed_check(traced, kParallelWorkers);
    const auto t = HookTimes::instance().seconds();

    const double worker_s = traced_wall * kParallelWorkers;
    const double hooked_s =
      t[Expand] + t[Canonicalize] + t[Invariants] + t[Constraint];
    report.metric("spec.expand.cpu_s", t[Expand], "s");
    report.metric("spec.canonicalize.cpu_s", t[Canonicalize], "s");
    report.metric("spec.invariants.cpu_s", t[Invariants], "s");
    report.metric("spec.constraint.cpu_s", t[Constraint], "s");
    report.metric("spec.admit_self.cpu_s", t[Admit], "s");
    report.metric("spec.engine_self.cpu_s", worker_s - hooked_s, "s");
    report.metric("spec.busy_frac", (hooked_s + t[Admit]) / worker_s, "frac");
    report.metric(
      "spec.speedup_vs_1_worker", one_wall / parallel_wall, "ratio");
    report.metric(
      "spec.generated", static_cast<double>(st.generated_states), "count");
    report.metric(
      "spec.duplicate_frac",
      static_cast<double>(st.duplicate_states) /
        static_cast<double>(std::max<uint64_t>(st.generated_states, 1)),
      "frac");
    report.metric(
      "spec.canonicalized",
      static_cast<double>(st.canonicalized_states),
      "count");
    report.metric(
      "spec.symmetry_hits", static_cast<double>(st.symmetry_hits), "count");
    report.metric(
      "spec.levels", static_cast<double>(st.max_depth + 1), "count");
    report.metric("spec.store_bytes", static_cast<double>(st.store_bytes), "B");
    if (primary)
    {
      report.metric(
        "tracing.overhead_frac", traced_wall / parallel_wall - 1.0, "frac");
    }
  }
}
