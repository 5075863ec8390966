// Tests for the exploration core (budget, worker pool, expander) and for
// the trace validator built on top of it: parallel BFS equivalence,
// full-path witnesses, iterative DFS on very deep traces, and clean
// budget-exhaustion behavior across every engine.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>

#include "spec/budget.h"
#include "spec/expander.h"
#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "spec/trace_validator.h"
#include "spec/work_stealing_pool.h"
#include "spec/worker_pool.h"

using namespace scv;
using namespace scv::spec;

namespace
{
  struct CounterState
  {
    int value = 0;

    bool operator==(const CounterState&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u64(static_cast<uint64_t>(value));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "value=" + std::to_string(value);
    }
  };

  SpecDef<CounterState> counter_spec(int max)
  {
    SpecDef<CounterState> def;
    def.name = "counter";
    def.init = {CounterState{0}};
    def.actions.push_back(
      {"Increment",
       [max](const CounterState& s, const Emit<CounterState>& emit) {
         if (s.value < max)
         {
           emit(CounterState{s.value + 1});
         }
       },
       1.0});
    return def;
  }

  /// Trace line for the counter: "value became v".
  TraceLineExpander<CounterState> counter_line(int v)
  {
    return {
      "value=" + std::to_string(v),
      [v](const CounterState& s, const Emit<CounterState>& emit) {
        if (s.value + 1 == v)
        {
          emit(CounterState{v});
        }
      }};
  }

  /// Nondeterministic line: each step allows +1 or +2.
  TraceLineExpander<CounterState> fuzzy_line(int line)
  {
    return {
      "fuzzy" + std::to_string(line),
      [](const CounterState& s, const Emit<CounterState>& emit) {
        emit(CounterState{s.value + 1});
        emit(CounterState{s.value + 2});
      }};
  }

  /// A line no state can match.
  TraceLineExpander<CounterState> impossible_line()
  {
    return {"impossible", [](const CounterState&, const Emit<CounterState>&) {
            }};
  }
}

// ---- Budget ----

TEST(Budget, StateCapIsInclusive)
{
  Budget budget(Budget::Caps{1e18, 10, UINT64_MAX});
  EXPECT_FALSE(budget.exhausted(9));
  EXPECT_TRUE(budget.states_exhausted(10));
  EXPECT_TRUE(budget.exhausted(10));
  EXPECT_TRUE(budget.exhausted(11));
}

TEST(Budget, DepthCapSkipsWithoutExhausting)
{
  Budget budget(Budget::Caps{1e18, UINT64_MAX, 5});
  EXPECT_FALSE(budget.depth_exceeded(4));
  EXPECT_TRUE(budget.depth_exceeded(5));
  // A depth cap alone never ends the run.
  EXPECT_FALSE(budget.exhausted(1u << 20));
}

TEST(Budget, ZeroTimeBudgetExpires)
{
  Budget budget(Budget::Caps{0.0, UINT64_MAX, UINT64_MAX});
  // elapsed() is strictly positive by the time we ask.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(budget.time_exhausted());
  EXPECT_TRUE(budget.exhausted(0));
}

TEST(Budget, StopFlagReadsAsExpiredDeadline)
{
  std::atomic<bool> stop{false};
  Budget budget;
  budget.set_stop_flag(&stop);
  EXPECT_FALSE(budget.time_exhausted());
  stop.store(true);
  EXPECT_TRUE(budget.stopped());
  EXPECT_TRUE(budget.time_exhausted());
  EXPECT_TRUE(budget.exhausted(0));
}

// ---- WorkerPool ----

TEST(WorkerPool, ResolvesWorkerCounts)
{
  EXPECT_EQ(resolve_worker_count(3), 3u);
  EXPECT_GE(resolve_worker_count(0), 1u); // hardware concurrency, >= 1
  EXPECT_EQ(WorkerPool(4).size(), 4u);
}

TEST(WorkerPool, RunsEveryWorkerExactlyOnce)
{
  const WorkerPool pool(4);
  std::mutex mu;
  std::set<unsigned> seen;
  pool.run([&](unsigned w) {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(seen.insert(w).second);
  });
  EXPECT_EQ(seen, (std::set<unsigned>{0, 1, 2, 3}));
}

TEST(WorkerPool, SingleWorkerRunsInline)
{
  const WorkerPool pool(1);
  const auto caller = std::this_thread::get_id();
  pool.run([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

// ---- Work-stealing deques ----

TEST(WorkStealing, OwnerIsLifoThiefIsFifo)
{
  StealableDeque<int> deque;
  deque.push_bottom(1);
  deque.push_bottom(2);
  deque.push_bottom(3);
  int got = 0;
  ASSERT_TRUE(deque.pop_bottom(got));
  EXPECT_EQ(got, 3); // the owner's DFS stack: newest first
  ASSERT_TRUE(deque.steal_top(got));
  EXPECT_EQ(got, 1); // thieves take the oldest (largest subtree)
  ASSERT_TRUE(deque.pop_bottom(got));
  EXPECT_EQ(got, 2);
  EXPECT_FALSE(deque.pop_bottom(got));
  EXPECT_FALSE(deque.steal_top(got));
}

TEST(WorkStealing, PopPrefersOwnDequeThenStealsRoundRobin)
{
  WorkStealingDeques<int> deques(3);
  deques.push(0, 10);
  deques.push(2, 30);
  int got = 0;
  bool stole = false;
  // Worker 0 drains its own deque first.
  ASSERT_TRUE(deques.pop_or_steal(0, got, stole));
  EXPECT_EQ(got, 10);
  EXPECT_FALSE(stole);
  // Then steals from the next non-empty victim.
  ASSERT_TRUE(deques.pop_or_steal(0, got, stole));
  EXPECT_EQ(got, 30);
  EXPECT_TRUE(stole);
  EXPECT_FALSE(deques.pop_or_steal(0, got, stole));
}

TEST(WorkStealing, ConcurrentOwnersAndThievesLoseNothing)
{
  // 4 workers push disjoint ranges and drain the union via pop_or_steal;
  // every item must surface exactly once.
  constexpr unsigned workers = 4;
  constexpr unsigned per_worker = 500;
  WorkStealingDeques<int> deques(workers);
  std::atomic<unsigned> drained{0};
  std::atomic<uint64_t> sum{0};
  const WorkerPool pool(workers);
  pool.run([&](unsigned w) {
    for (unsigned i = 0; i < per_worker; ++i)
    {
      deques.push(w, static_cast<int>(w * per_worker + i));
    }
    int got = 0;
    bool stole = false;
    while (drained.load() < workers * per_worker)
    {
      if (deques.pop_or_steal(w, got, stole))
      {
        sum.fetch_add(static_cast<uint64_t>(got));
        drained.fetch_add(1);
      }
      else
      {
        std::this_thread::yield();
      }
    }
  });
  EXPECT_EQ(drained.load(), workers * per_worker);
  const uint64_t n = workers * per_worker;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---- Striped key set (the shared dead-end memo) ----

TEST(StripedKeySet, InsertAndContains)
{
  StripedKeySet set(8);
  EXPECT_FALSE(set.contains(42));
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.contains(42));
  // Keys differing only in the high half land on different stripes and
  // must still be distinct entries.
  EXPECT_TRUE(set.insert(uint64_t{42} << 32));
  EXPECT_EQ(set.size(), 2u);
}

TEST(StripedKeySet, ConcurrentInsertsDeduplicate)
{
  StripedKeySet set(8);
  std::atomic<uint64_t> fresh{0};
  const WorkerPool pool(4);
  pool.run([&](unsigned) {
    for (uint64_t k = 0; k < 1000; ++k)
    {
      if (set.insert(k))
      {
        fresh.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(fresh.load(), 1000u); // each key admitted exactly once
  EXPECT_EQ(set.size(), 1000u);
}

// ---- Expander fault composition (duplicate-emission fix) ----

TEST(Expander, FaultClosureEmitsEachDistinctStateOnce)
{
  // The fault emits s+1 twice (two "different" faults with the same
  // effect, e.g. dropping either of two identical messages). Pre-fix,
  // each layer re-emitted every duplicate.
  Expander<CounterState> expander;
  expander.set_fault(
    [](const CounterState& s, const Emit<CounterState>& emit) {
      emit(CounterState{s.value + 1});
      emit(CounterState{s.value + 1});
    },
    2);
  std::vector<int> emitted;
  expander.with_faults(
    CounterState{0}, [&](const CounterState& s) { emitted.push_back(s.value); });
  // Exactly: the source, one copy of layer 1, one copy of layer 2.
  EXPECT_EQ(emitted, (std::vector<int>{0, 1, 2}));
}

TEST(Expander, FaultClosureNeverReemitsTheSource)
{
  // An identity fault (e.g. duplicating a message that is already
  // duplicated beyond the cap) must not re-emit the source state.
  Expander<CounterState> expander;
  expander.set_fault(
    [](const CounterState& s, const Emit<CounterState>& emit) { emit(s); },
    3);
  size_t emissions = 0;
  expander.with_faults(
    CounterState{0}, [&](const CounterState&) { emissions++; });
  EXPECT_EQ(emissions, 1u);
}

// ---- Stats plumbing ----

TEST(ExplorationStats, ChecksDuplicateStatesAndRates)
{
  // Two actions produce the same successor: every state after the first
  // is generated twice, so the checker must count one duplicate each.
  SpecDef<CounterState> def = counter_spec(10);
  def.actions.push_back(
    {"IncrementToo",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       if (s.value < 10)
       {
         emit(CounterState{s.value + 1});
       }
     },
     1.0});
  const auto result = model_check(def);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.stats.distinct_states, 11u);
  EXPECT_EQ(result.stats.duplicate_states, 10u);
  EXPECT_GE(result.stats.states_per_second(), 0.0);
  EXPECT_NE(result.stats.summary().find("duplicates="), std::string::npos);
}

// ---- Budget exhaustion: every engine returns cleanly with partial stats ----

TEST(BudgetExhaustion, CheckerStopsAtStateCap)
{
  CheckLimits limits;
  limits.max_distinct_states = 100;
  const auto result = model_check(counter_spec(1'000'000), limits);
  EXPECT_TRUE(result.ok); // no violation found, just cut short
  EXPECT_FALSE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 100u);
}

TEST(BudgetExhaustion, SimulatorStopsAtBehaviorCap)
{
  SimOptions options;
  options.max_behaviors = 5;
  options.max_depth = 10;
  options.time_budget_seconds = 1e18;
  const auto def = counter_spec(100);
  Simulator<CounterState> sim(def, options);
  const auto result = sim.run();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.behaviors, 5u);
  EXPECT_FALSE(result.stats.complete);
}

TEST(BudgetExhaustion, ValidatorBfsStopsAtStateCap)
{
  for (const unsigned threads : {1u, 4u})
  {
    ValidationOptions options;
    options.mode = SearchMode::Bfs;
    options.threads = threads;
    options.max_states = 3;
    std::vector<TraceLineExpander<CounterState>> lines;
    for (int i = 0; i < 50; ++i)
    {
      lines.push_back(fuzzy_line(i));
    }
    TraceValidator<CounterState> v({CounterState{0}}, lines, options);
    const auto result = v.run();
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.stats.complete);
    EXPECT_LT(result.lines_matched, 50u);
    EXPECT_GE(result.states_explored, 3u);
    EXPECT_FALSE(result.failed_line.empty());
  }
}

TEST(BudgetExhaustion, ValidatorDfsStopsAtStateCap)
{
  ValidationOptions options;
  options.mode = SearchMode::Dfs;
  options.max_states = 3;
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 50; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  TraceValidator<CounterState> v({CounterState{0}}, lines, options);
  const auto result = v.run();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.stats.complete);
  EXPECT_LT(result.lines_matched, 50u);
  EXPECT_GE(result.states_explored, 3u);
}

// ---- BFS witness reconstruction (regression: used to be one state) ----

TEST(TraceValidatorCore, BfsWitnessIsTheFullBehavior)
{
  ValidationOptions options;
  options.mode = SearchMode::Bfs;
  const std::vector<TraceLineExpander<CounterState>> lines = {
    counter_line(1), counter_line(2), counter_line(3)};
  TraceValidator<CounterState> v({CounterState{0}}, lines, options);
  const auto result = v.run();
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.witness.size(), lines.size() + 1);
  for (size_t i = 0; i < result.witness.size(); ++i)
  {
    EXPECT_EQ(result.witness[i].value, static_cast<int>(i));
  }
}

TEST(TraceValidatorCore, BfsWitnessIsConnectedUnderNondeterminism)
{
  ValidationOptions options;
  options.mode = SearchMode::Bfs;
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 8; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  TraceValidator<CounterState> v({CounterState{0}}, lines, options);
  const auto result = v.run();
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.witness.size(), lines.size() + 1);
  EXPECT_EQ(result.witness.front().value, 0);
  for (size_t i = 1; i < result.witness.size(); ++i)
  {
    const int step = result.witness[i].value - result.witness[i - 1].value;
    EXPECT_TRUE(step == 1 || step == 2) << "disconnected at step " << i;
  }
}

// ---- Parallel BFS equivalence ----

TEST(TraceValidatorCore, ParallelBfsMatchesSequentialOnValidTrace)
{
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 10; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  ValidationOptions options;
  options.mode = SearchMode::Bfs;

  options.threads = 1;
  TraceValidator<CounterState> seq({CounterState{0}}, lines, options);
  const auto a = seq.run();

  options.threads = 4;
  TraceValidator<CounterState> par({CounterState{0}}, lines, options);
  const auto b = par.run();

  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.lines_matched, b.lines_matched);
  EXPECT_EQ(a.frontier_sizes, b.frontier_sizes);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.witness.size(), b.witness.size());
}

TEST(TraceValidatorCore, ParallelBfsMatchesSequentialOnInvalidTrace)
{
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 6; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  lines.push_back(impossible_line());
  ValidationOptions options;
  options.mode = SearchMode::Bfs;

  options.threads = 1;
  TraceValidator<CounterState> seq({CounterState{0}}, lines, options);
  const auto a = seq.run();

  options.threads = 4;
  TraceValidator<CounterState> par({CounterState{0}}, lines, options);
  const auto b = par.run();

  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(b.ok);
  EXPECT_EQ(a.lines_matched, b.lines_matched);
  EXPECT_EQ(a.failed_line, b.failed_line);
  EXPECT_EQ(a.frontier_sizes, b.frontier_sizes);
  EXPECT_EQ(a.frontier_at_failure.size(), b.frontier_at_failure.size());
}

// ---- Iterative DFS: no C-stack overflow on very deep traces ----

TEST(TraceValidatorCore, DfsHandlesVeryDeepTraces)
{
  // ~100k lines: the recursive validator would overflow the C stack long
  // before this; the explicit frame stack just grows on the heap.
  constexpr int depth = 100'000;
  std::vector<TraceLineExpander<CounterState>> lines;
  lines.reserve(depth);
  for (int i = 1; i <= depth; ++i)
  {
    lines.push_back(counter_line(i));
  }
  ValidationOptions options;
  options.mode = SearchMode::Dfs;
  TraceValidator<CounterState> v({CounterState{0}}, lines, options);
  const auto result = v.run();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.lines_matched, static_cast<size_t>(depth));
  ASSERT_EQ(result.witness.size(), static_cast<size_t>(depth) + 1);
  EXPECT_EQ(result.witness.back().value, depth);
}

// ---- Diagnostic-state cap ----

TEST(TraceValidatorCore, DiagnosticStatesRespectConfiguredCap)
{
  // Grow the frontier, then hit an impossible line; the deepest-line
  // candidates exceed a small cap.
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 4; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  lines.push_back(impossible_line());

  ValidationOptions options;
  options.mode = SearchMode::Dfs;
  options.max_diagnostic_states = 2;
  TraceValidator<CounterState> capped({CounterState{0}}, lines, options);
  const auto small = capped.run();
  EXPECT_FALSE(small.ok);
  EXPECT_EQ(small.frontier_at_failure.size(), 2u);

  options.max_diagnostic_states = 100;
  TraceValidator<CounterState> wide({CounterState{0}}, lines, options);
  const auto large = wide.run();
  EXPECT_FALSE(large.ok);
  // Distinct values reachable after 4 fuzzy steps: 4..8 — five candidates,
  // all retained under the raised cap (the old hard-coded cap was 8).
  EXPECT_EQ(large.frontier_at_failure.size(), 5u);
}

// ---- Work-stealing parallel DFS ----

namespace
{
  ValidationResult<CounterState> run_dfs(
    const std::vector<TraceLineExpander<CounterState>>& lines,
    unsigned threads,
    uint64_t max_states = UINT64_MAX)
  {
    ValidationOptions options;
    options.mode = SearchMode::Dfs;
    options.threads = threads;
    options.max_states = max_states;
    TraceValidator<CounterState> v({CounterState{0}}, lines, options);
    return v.run();
  }

  /// A fuzzy (+1 or +2) witness must be a connected behavior.
  void expect_fuzzy_witness(
    const ValidationResult<CounterState>& r, size_t n_lines)
  {
    ASSERT_EQ(r.witness.size(), n_lines + 1);
    EXPECT_EQ(r.witness.front().value, 0);
    for (size_t i = 1; i < r.witness.size(); ++i)
    {
      const int step = r.witness[i].value - r.witness[i - 1].value;
      EXPECT_TRUE(step == 1 || step == 2) << "disconnected at step " << i;
    }
  }
}

TEST(ParallelDfs, MatchesSequentialOnValidTrace)
{
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 12; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  const auto seq = run_dfs(lines, 1);
  ASSERT_TRUE(seq.ok);
  // One worker never steals: its search order, and so its witness and
  // work count, are the same on every run.
  const auto again = run_dfs(lines, 1);
  EXPECT_EQ(again.witness, seq.witness);
  EXPECT_EQ(again.states_explored, seq.states_explored);
  EXPECT_EQ(again.stats.steals, 0u);
  for (const unsigned threads : {2u, 4u})
  {
    const auto par = run_dfs(lines, threads);
    EXPECT_TRUE(par.ok) << "threads=" << threads;
    EXPECT_EQ(par.lines_matched, seq.lines_matched);
    expect_fuzzy_witness(par, lines.size());
    EXPECT_EQ(par.stats.complete, seq.stats.complete);
  }
}

TEST(ParallelDfs, MatchesSequentialOnInvalidTrace)
{
  // Wide branching, then an impossible line: every subtree is explored
  // and proven dead, so verdict, deepest line, and failing line must all
  // match the one-worker search.
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 8; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  lines.push_back(impossible_line());
  const auto seq = run_dfs(lines, 1);
  ASSERT_FALSE(seq.ok);
  for (const unsigned threads : {2u, 4u})
  {
    const auto par = run_dfs(lines, threads);
    EXPECT_FALSE(par.ok) << "threads=" << threads;
    EXPECT_EQ(par.lines_matched, seq.lines_matched);
    EXPECT_EQ(par.failed_line, seq.failed_line);
    EXPECT_FALSE(par.frontier_at_failure.empty());
    EXPECT_LE(par.frontier_at_failure.size(), 8u); // max_diagnostic_states
  }
}

TEST(ParallelDfs, StopsCleanlyAtStateCap)
{
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 50; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  for (const unsigned threads : {2u, 4u})
  {
    const auto r = run_dfs(lines, threads, 3);
    EXPECT_FALSE(r.ok) << "threads=" << threads;
    EXPECT_FALSE(r.stats.complete);
    EXPECT_LT(r.lines_matched, 50u);
    EXPECT_GE(r.states_explored, 3u);
  }
}

TEST(ParallelDfs, SharedMemoPrunesAcrossWorkers)
{
  // 16 fuzzy lines reconverge massively (2^16 paths over ~500 distinct
  // (line, value) nodes) and the final line kills them all: the shared
  // dead-end memo must absorb the reconvergence — with it, the search
  // enters each distinct node roughly once instead of once per path.
  std::vector<TraceLineExpander<CounterState>> lines;
  for (int i = 0; i < 16; ++i)
  {
    lines.push_back(fuzzy_line(i));
  }
  lines.push_back(impossible_line());
  const auto seq = run_dfs(lines, 1);
  ASSERT_FALSE(seq.ok);
  ASSERT_GT(seq.stats.memo_hits, 0u);
  const auto par = run_dfs(lines, 4);
  EXPECT_FALSE(par.ok);
  EXPECT_EQ(par.lines_matched, seq.lines_matched);
  EXPECT_GT(par.stats.memo_hits, 0u);
  // Without memoization the search would enter one node per path prefix
  // (>> 2^16); concurrent duplicate entries are possible but bounded.
  EXPECT_LT(par.stats.distinct_states, 1u << 14);
  // The memo hits are also counted as duplicates, as at one worker.
  EXPECT_EQ(par.stats.duplicate_states, par.stats.memo_hits);
}

TEST(ParallelDfs, HandlesVeryDeepTraces)
{
  // The 100k-line chain at threads=4: exercises the iterative parent-
  // chain teardown (a recursive shared_ptr release would overflow the C
  // stack) and the witness walk on a maximally deep task tree.
  constexpr int depth = 100'000;
  std::vector<TraceLineExpander<CounterState>> lines;
  lines.reserve(depth);
  for (int i = 1; i <= depth; ++i)
  {
    lines.push_back(counter_line(i));
  }
  const auto r = run_dfs(lines, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.lines_matched, static_cast<size_t>(depth));
  ASSERT_EQ(r.witness.size(), static_cast<size_t>(depth) + 1);
  EXPECT_EQ(r.witness.back().value, depth);
}

// ---- BFS frontier pruning: a fingerprint-only store drops each line's
// bodies at the barrier and replays the witness ----

TEST(BfsFrontierPruning, DeepTraceWitnessSurvivesPruning)
{
  // A deep linear trace: the store keeps 16-byte records for every line
  // but bodies only for the live frontier, and the witness is still the
  // whole behavior at the end — replayed from the recorded line chain.
  constexpr int depth = 50'000;
  std::vector<TraceLineExpander<CounterState>> lines;
  lines.reserve(depth);
  for (int i = 1; i <= depth; ++i)
  {
    lines.push_back(counter_line(i));
  }
  ValidationOptions options;
  options.mode = SearchMode::Bfs;
  options.store.mode = StoreMode::fingerprint_only;
  TraceValidator<CounterState> v({CounterState{0}}, lines, options);
  const auto r = v.run();
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.witness.size(), static_cast<size_t>(depth) + 1);
  EXPECT_EQ(r.witness.back().value, depth);
}
