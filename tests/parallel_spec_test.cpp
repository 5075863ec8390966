// Tests for the parallel exploration engine: the sharded fingerprint
// store's ID scheme and dedup, one-worker goldens, and multi-worker runs
// finding the same violations and covering the same state space as
// single-worker runs.
#include <atomic>
#include <map>

#include <gtest/gtest.h>

#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "specs/consensus/spec.h"

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

  // Die Hard jugs puzzle: known 16-state space, known 7-step solution.
  struct Jugs
  {
    int small = 0; // capacity 3
    int big = 0; // capacity 5

    bool operator==(const Jugs&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u8(static_cast<uint8_t>(small));
      sink.u8(static_cast<uint8_t>(big));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "small=" + std::to_string(small) + " big=" + std::to_string(big);
    }
  };

  SpecDef<Jugs> die_hard_spec()
  {
    SpecDef<Jugs> def;
    def.name = "diehard";
    def.init = {Jugs{}};
    const auto act = [&def](const char* name, auto fn) {
      def.actions.push_back(
        {name,
         [fn](const Jugs& s, const Emit<Jugs>& emit) {
           Jugs next = s;
           fn(next);
           if (!(next == s))
           {
             emit(next);
           }
         },
         1.0});
    };
    act("FillSmall", [](Jugs& j) { j.small = 3; });
    act("FillBig", [](Jugs& j) { j.big = 5; });
    act("EmptySmall", [](Jugs& j) { j.small = 0; });
    act("EmptyBig", [](Jugs& j) { j.big = 0; });
    act("SmallToBig", [](Jugs& j) {
      const int pour = std::min(j.small, 5 - j.big);
      j.small -= pour;
      j.big += pour;
    });
    act("BigToSmall", [](Jugs& j) {
      const int pour = std::min(j.big, 3 - j.small);
      j.big -= pour;
      j.small += pour;
    });
    def.invariants.push_back(
      {"NotFourGallons", [](const Jugs& j) { return j.big != 4; }});
    return def;
  }

  /// A state whose canonical serialization deliberately omits `hidden`, so
  /// two unequal states can share one fingerprint — a forced fingerprint
  /// collision to exercise the collision-chain fallback.
  struct ColliderState
  {
    int keyed = 0;
    int hidden = 0;

    bool operator==(const ColliderState&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u64(static_cast<uint64_t>(keyed));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "keyed=" + std::to_string(keyed) +
        " hidden=" + std::to_string(hidden);
    }
  };
}

// ---------------------------------------------------------------------------
// ShardedStateStore
// ---------------------------------------------------------------------------

TEST(ShardedStateStore, IdEncodingRoundTrips)
{
  ShardedStateStore<CounterState> store(8);
  EXPECT_EQ(store.shard_count(), 8u);
  for (size_t shard = 0; shard < 8; ++shard)
  {
    for (size_t local : {0ull, 1ull, 7ull, 123456ull})
    {
      const auto id = store.encode(shard, local);
      EXPECT_EQ(store.shard_of(id), shard);
      EXPECT_EQ(store.local_of(id), local);
    }
  }
}

TEST(ShardedStateStore, ShardCountRoundsUpToPowerOfTwo)
{
  EXPECT_EQ(ShardedStateStore<CounterState>(1).shard_count(), 1u);
  EXPECT_EQ(ShardedStateStore<CounterState>(3).shard_count(), 4u);
  EXPECT_EQ(ShardedStateStore<CounterState>(5).shard_count(), 8u);
  EXPECT_EQ(ShardedStateStore<CounterState>(16).shard_count(), 16u);
}

TEST(ShardedStateStore, InsertDedupsAndRecordsAreRetrievable)
{
  using Store = ShardedStateStore<CounterState>;
  Store store(4);
  const CounterState s1{7};
  const auto first =
    store.insert(s1, fingerprint(s1), Store::no_parent, Store::init_action, 0);
  EXPECT_TRUE(first.inserted);
  const auto again =
    store.insert(s1, fingerprint(s1), Store::no_parent, Store::init_action, 0);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(first.id, again.id);
  EXPECT_EQ(store.size(), 1u);

  const CounterState s2{8};
  const auto child = store.insert(s2, fingerprint(s2), first.id, 0, 1);
  EXPECT_TRUE(child.inserted);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.record(child.id).state(), s2);
  EXPECT_EQ(store.record(child.id).parent, first.id);
  EXPECT_EQ(store.record(child.id).depth, 1u);
  EXPECT_EQ(store.record(first.id).parent, Store::no_parent);
}

TEST(ShardedStateStore, FingerprintCollisionFallsBackToStateComparison)
{
  using Store = ShardedStateStore<ColliderState>;
  Store store(2);
  const ColliderState a{1, 1};
  const ColliderState b{1, 2}; // same fingerprint, different state
  ASSERT_EQ(fingerprint(a), fingerprint(b));
  ASSERT_FALSE(a == b);
  const auto ia =
    store.insert(a, fingerprint(a), Store::no_parent, Store::init_action, 0);
  const auto ib =
    store.insert(b, fingerprint(b), Store::no_parent, Store::init_action, 0);
  EXPECT_TRUE(ia.inserted);
  EXPECT_TRUE(ib.inserted); // collision chain keeps both
  EXPECT_NE(ia.id, ib.id);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.record(ia.id).state(), a);
  EXPECT_EQ(store.record(ib.id).state(), b);
}

// ---------------------------------------------------------------------------
// One worker: the frontier-batched engine run inline must reproduce the
// results of the sequential FIFO BFS it replaced. The goldens below are
// that engine's recorded answers (distinct, generated, transitions, max
// depth, coverage, counterexamples). Each spec is checked on a private
// store and on an attached (campaign) store.
// ---------------------------------------------------------------------------

namespace
{
  template <class S>
  std::vector<CheckResult<S>> check_one_worker(const SpecDef<S>& spec)
  {
    std::vector<CheckResult<S>> results;
    results.push_back(ModelChecker<S>(spec).check());
    ShardedStateStore<S> store(1);
    ModelChecker<S> attached(spec);
    attached.attach_store(&store, EngineId::Checker);
    results.push_back(attached.check());
    return results;
  }

  template <class S>
  void expect_counterexample(
    const CheckResult<S>& r,
    const std::string& property,
    const std::vector<TraceStep<S>>& steps)
  {
    ASSERT_FALSE(r.ok);
    ASSERT_TRUE(r.counterexample.has_value());
    EXPECT_EQ(r.counterexample->property, property);
    ASSERT_EQ(r.counterexample->steps.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i)
    {
      EXPECT_EQ(r.counterexample->steps[i].action, steps[i].action);
      EXPECT_EQ(r.counterexample->steps[i].state, steps[i].state);
    }
  }
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialOnCleanSpec)
{
  for (const auto& r : check_one_worker(counter_spec(100)))
  {
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.stats.complete);
    EXPECT_EQ(r.stats.distinct_states, 101u);
    EXPECT_EQ(r.stats.generated_states, 101u);
    EXPECT_EQ(r.stats.transitions, 100u);
    EXPECT_EQ(r.stats.max_depth, 100u);
    EXPECT_EQ(
      r.stats.action_coverage,
      (std::map<std::string, uint64_t>{{"Increment", 100}}));
  }
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialCounterexample)
{
  auto spec = counter_spec(10);
  spec.invariants.push_back(
    {"BelowFive", [](const CounterState& s) { return s.value < 5; }});
  std::vector<TraceStep<CounterState>> steps = {{"<init>", CounterState{0}}};
  for (int v = 1; v <= 5; ++v)
  {
    steps.push_back({"Increment", CounterState{v}});
  }
  for (const auto& r : check_one_worker(spec))
  {
    EXPECT_EQ(r.stats.distinct_states, 6u);
    EXPECT_EQ(r.stats.generated_states, 6u);
    expect_counterexample(r, "BelowFive", steps);
  }
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialActionProperty)
{
  auto spec = counter_spec(10);
  spec.actions.push_back(
    {"Decrement",
     [](const CounterState& s, const Emit<CounterState>& emit) {
       if (s.value > 0)
       {
         emit(CounterState{s.value - 1});
       }
     },
     1.0});
  spec.action_properties.push_back(
    {"Monotonic", [](const CounterState& a, const CounterState& b) {
       return b.value >= a.value;
     }});
  for (const auto& r : check_one_worker(spec))
  {
    // 0 -> 1 -> 2 is admitted; 1 -> 0 is generated and violates.
    EXPECT_EQ(r.stats.distinct_states, 3u);
    EXPECT_EQ(r.stats.generated_states, 4u);
    expect_counterexample(
      r,
      "Monotonic",
      {{"<init>", CounterState{0}},
       {"Increment", CounterState{1}},
       {"Decrement", CounterState{0}}});
  }
}

TEST(ModelCheckerFrontierPath, SingleWorkerMatchesSequentialDieHard)
{
  for (const auto& r : check_one_worker(die_hard_spec()))
  {
    EXPECT_EQ(r.stats.distinct_states, 14u);
    EXPECT_EQ(r.stats.generated_states, 43u);
    EXPECT_EQ(r.stats.duplicate_states, 29u);
    expect_counterexample(
      r,
      "NotFourGallons",
      {{"<init>", Jugs{0, 0}},
       {"FillBig", Jugs{0, 5}},
       {"BigToSmall", Jugs{3, 2}},
       {"EmptySmall", Jugs{0, 2}},
       {"BigToSmall", Jugs{2, 0}},
       {"FillBig", Jugs{2, 5}},
       {"BigToSmall", Jugs{3, 4}}});
  }
}

// The BFS frontier borrows its states from the store: a complete check
// copies each admitted state exactly once (into the store) and never
// moves one, at any worker count and in both store modes.
namespace
{
  struct CopyCounted
  {
    int x = 0;
    int y = 0;
    static inline std::atomic<uint64_t> copies{0};
    static inline std::atomic<uint64_t> moves{0};

    CopyCounted(int x_, int y_) : x(x_), y(y_) {}
    CopyCounted(const CopyCounted& o) : x(o.x), y(o.y)
    {
      copies++;
    }
    CopyCounted(CopyCounted&& o) noexcept : x(o.x), y(o.y)
    {
      moves++;
    }
    CopyCounted& operator=(const CopyCounted& o)
    {
      x = o.x;
      y = o.y;
      copies++;
      return *this;
    }
    CopyCounted& operator=(CopyCounted&& o) noexcept
    {
      x = o.x;
      y = o.y;
      moves++;
      return *this;
    }
    ~CopyCounted() = default;

    bool operator==(const CopyCounted& o) const
    {
      return x == o.x && y == o.y;
    }
    void serialize(ByteSink& sink) const
    {
      sink.u32(static_cast<uint32_t>(x));
      sink.u32(static_cast<uint32_t>(y));
    }
    [[nodiscard]] std::string to_string() const
    {
      return "x=" + std::to_string(x) + " y=" + std::to_string(y);
    }
  };

  /// A 31x31 grid walked by two actions: 961 states, most reached twice.
  SpecDef<CopyCounted> grid_spec()
  {
    SpecDef<CopyCounted> def;
    def.name = "grid";
    def.init.emplace_back(0, 0);
    def.actions.push_back(
      {"Right",
       [](const CopyCounted& s, const Emit<CopyCounted>& emit) {
         if (s.x < 30)
         {
           emit(CopyCounted(s.x + 1, s.y));
         }
       },
       1.0});
    def.actions.push_back(
      {"Up",
       [](const CopyCounted& s, const Emit<CopyCounted>& emit) {
         if (s.y < 30)
         {
           emit(CopyCounted(s.x, s.y + 1));
         }
       },
       1.0});
    return def;
  }
}

TEST(ModelCheckerFrontierPath, OneStateCopyPerAdmittedState)
{
  const auto spec = grid_spec();
  for (const unsigned threads : {1u, 4u})
  {
    for (const StoreMode mode : {StoreMode::full, StoreMode::fingerprint_only})
    {
      CheckLimits limits;
      limits.threads = threads;
      limits.store.mode = mode;
      CopyCounted::copies = 0;
      CopyCounted::moves = 0;
      const auto r = model_check(spec, limits);
      ASSERT_TRUE(r.ok);
      ASSERT_TRUE(r.stats.complete);
      EXPECT_EQ(r.stats.distinct_states, 961u);
      EXPECT_EQ(CopyCounted::copies.load(), r.stats.distinct_states)
        << "threads=" << threads;
      EXPECT_EQ(CopyCounted::moves.load(), 0u) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// ModelChecker: multi-worker behavior (threads > 1)
// ---------------------------------------------------------------------------

namespace
{
  SpecDef<Jugs> die_hard_no_invariants()
  {
    auto spec = die_hard_spec();
    spec.invariants.clear();
    return spec;
  }
}

// Clean bounded spec: the explored *set* is deterministic regardless of
// worker count, so the distinct count must match exactly.
TEST(ModelCheckerParallel, FourWorkersExploreExactly16DieHardStates)
{
  CheckLimits limits;
  limits.threads = 4;
  const auto result = model_check(die_hard_no_invariants(), limits);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 16u);
}

TEST(ModelCheckerParallel, FourWorkersFindLevelMinimalViolation)
{
  auto spec = counter_spec(10);
  spec.invariants.push_back(
    {"BelowFive", [](const CounterState& s) { return s.value < 5; }});
  CheckLimits limits;
  limits.threads = 4;
  const auto result = model_check(spec, limits);
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->property, "BelowFive");
  // BFS levels are processed in order: the violation is level-minimal.
  EXPECT_EQ(result.counterexample->steps.size(), 6u);
  EXPECT_EQ(result.counterexample->steps.back().state.value, 5);
}

TEST(ModelCheckerParallel, LimitsRespectedAtFourWorkers)
{
  CheckLimits limits;
  limits.threads = 4;
  limits.max_distinct_states = 50;
  const auto result = model_check(counter_spec(10000), limits);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.stats.complete);
  // Workers stop claiming items once the limit trips; in-flight expansions
  // may add at most one level of slack.
  EXPECT_GE(result.stats.distinct_states, 50u);
  EXPECT_LE(result.stats.distinct_states, 60u);
}

TEST(ModelCheckerParallel, DepthLimitRespectedAtFourWorkers)
{
  CheckLimits limits;
  limits.threads = 4;
  limits.max_depth = 3;
  const auto result = model_check(counter_spec(1000), limits);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.distinct_states, 4u); // 0..3
}

// Stress: the bounded consensus spec with a re-injected historical bug
// (bug 3, commit-advance-on-NACK) must produce the same verdict and the
// same violated property at 1 and at 4 workers; the fixed spec must cover
// the identical state space at both worker counts.
namespace
{
  specs::ccfraft::Params nack_bug_model(bool buggy)
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 1;
    p.max_requests = 1;
    p.max_log_len = 4;
    p.max_batch = 2;
    p.max_network = 3;
    p.max_copies = 1;
    p.bugs.nack_overwrites_match_index = buggy;
    return p;
  }
}

TEST(ModelCheckerParallel, ConsensusBugFoundAtOneAndFourWorkers)
{
  const auto spec = specs::ccfraft::build_spec(nack_bug_model(true));
  for (const unsigned threads : {1u, 4u})
  {
    CheckLimits limits;
    limits.threads = threads;
    limits.time_budget_seconds = 600.0;
    const auto result = model_check(spec, limits);
    ASSERT_FALSE(result.ok) << "threads=" << threads;
    ASSERT_TRUE(result.counterexample.has_value());
    EXPECT_EQ(result.counterexample->property, "MonotonicMatchIndexProp")
      << "threads=" << threads;
    // Spot-check the trace is well-formed: starts at an init state and
    // every step names a real action.
    EXPECT_EQ(result.counterexample->steps.front().action, "<init>");
    for (size_t i = 1; i < result.counterexample->steps.size(); ++i)
    {
      EXPECT_FALSE(result.counterexample->steps[i].action.empty());
    }
  }
}

TEST(ModelCheckerParallel, ConsensusCleanSpecSameCoverageAtFourWorkers)
{
  const auto spec = specs::ccfraft::build_spec(nack_bug_model(false));
  CheckLimits limits;
  limits.time_budget_seconds = 600.0;
  limits.threads = 1;
  const auto one = model_check(spec, limits);
  limits.threads = 4;
  const auto four = model_check(spec, limits);
  ASSERT_TRUE(one.ok);
  ASSERT_TRUE(four.ok);
  ASSERT_TRUE(one.stats.complete);
  ASSERT_TRUE(four.stats.complete);
  EXPECT_EQ(four.stats.distinct_states, one.stats.distinct_states);
  EXPECT_EQ(four.stats.transitions, one.stats.transitions);
  EXPECT_EQ(four.stats.action_coverage, one.stats.action_coverage);
}

// ---------------------------------------------------------------------------
// Simulator: fan-out behavior (threads > 1 dispatch)
// ---------------------------------------------------------------------------

TEST(SimulatorFanout, SingleWorkerMatchesSequentialSimulator)
{
  const auto spec = die_hard_no_invariants();
  SimOptions options;
  options.seed = 42;
  options.max_behaviors = 50;
  options.max_depth = 10;
  options.time_budget_seconds = 30.0;
  const auto sequential = Simulator<Jugs>(spec, options).run();
  options.threads = 1;
  const auto parallel = simulate(spec, options);
  EXPECT_EQ(parallel.ok, sequential.ok);
  EXPECT_EQ(parallel.behaviors, sequential.behaviors);
  EXPECT_EQ(parallel.stats.transitions, sequential.stats.transitions);
  EXPECT_EQ(parallel.stats.distinct_states, sequential.stats.distinct_states);
  EXPECT_EQ(
    parallel.distinct_fingerprints, sequential.distinct_fingerprints);
}

TEST(SimulatorFanout, FourWorkersMergeStatsAndCoverage)
{
  const auto spec = die_hard_no_invariants();
  SimOptions options;
  options.seed = 42;
  options.max_behaviors = 40;
  options.max_depth = 10;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  const auto result = simulate(spec, options);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.behaviors, 40u); // shares sum to the requested budget
  EXPECT_GT(result.stats.transitions, 0u);
  // Distinct counts are a union, not a sum: never more than the 16
  // reachable states of the puzzle.
  EXPECT_LE(result.stats.distinct_states, 16u);
  EXPECT_GT(result.stats.distinct_states, 0u);
  EXPECT_EQ(
    result.distinct_fingerprints.size(), result.stats.distinct_states);
}

TEST(SimulatorFanout, WorkerSeedsAreIndependent)
{
  // The same worker count and base seed reproduce the same merged
  // behavior count and coverage (stop-flag timing cannot differ on a
  // violation-free spec).
  const auto spec = die_hard_no_invariants();
  SimOptions options;
  options.seed = 7;
  options.max_behaviors = 32;
  options.max_depth = 8;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  const auto a = simulate(spec, options);
  const auto b = simulate(spec, options);
  EXPECT_EQ(a.behaviors, b.behaviors);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_EQ(a.distinct_fingerprints, b.distinct_fingerprints);
}

TEST(SimulatorFanout, FourWorkersFindViolation)
{
  auto spec = counter_spec(20);
  spec.invariants.push_back(
    {"BelowTen", [](const CounterState& s) { return s.value < 10; }});
  SimOptions options;
  options.seed = 5;
  options.max_depth = 30;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  const auto result = simulate(spec, options);
  ASSERT_FALSE(result.ok);
  ASSERT_TRUE(result.counterexample.has_value());
  EXPECT_EQ(result.counterexample->property, "BelowTen");
  EXPECT_EQ(result.counterexample->steps.back().state.value, 10);
}

TEST(SimulatorFanout, ObserverSeesStatesFromAllWorkers)
{
  const auto spec = counter_spec(5);
  SimOptions options;
  options.seed = 11;
  options.max_behaviors = 20;
  options.max_depth = 5;
  options.time_budget_seconds = 30.0;
  options.threads = 4;
  Simulator<CounterState> sim(spec, options);
  uint64_t observed = 0;
  sim.set_observer([&observed](const CounterState&) { ++observed; });
  const auto result = sim.run();
  EXPECT_TRUE(result.ok);
  // One observation per walk start plus one per transition.
  EXPECT_EQ(observed, result.behaviors + result.stats.transitions);
}

// model_check(): the threads field only sets the worker count; the
// results are the same.
TEST(ModelCheckDispatch, ThreadsFieldRoutesBothEngines)
{
  auto spec = counter_spec(50);
  CheckLimits limits;
  limits.threads = 1;
  const auto seq = model_check(spec, limits);
  limits.threads = 2;
  const auto par = model_check(spec, limits);
  EXPECT_TRUE(seq.ok);
  EXPECT_TRUE(par.ok);
  EXPECT_EQ(seq.stats.distinct_states, 51u);
  EXPECT_EQ(par.stats.distinct_states, 51u);
}

