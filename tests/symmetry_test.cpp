// Symmetry reduction (docs/SPEC.md "Symmetry reduction"): canonicalizer
// properties (canon(perm(s)) == canon(s)), golden symmetry-on vs
// symmetry-off equivalence across the engines (identical verdicts,
// reduced distinct counts matching a ground-truth quotient), concrete
// replayability of counterexamples found under symmetry, fault-closure
// interaction, the campaign plumbing, equivalence of the in-place
// relabeling and the scratch-based canonicalizer with copying references,
// and exact checker counters on the benchmark's probe model.
#include <algorithm>
#include <deque>
#include <numeric>
#include <unordered_set>

#include <gtest/gtest.h>

#include "spec/campaign.h"
#include "spec/model_checker.h"
#include "spec/simulator.h"
#include "spec/symmetry.h"
#include "specs/consensus/spec.h"
#include "specs/consensus/symmetry.h"
#include "util/rng.h"

using namespace scv;
using namespace scv::spec;

namespace
{
  // --- helpers -------------------------------------------------------------

  Perm random_perm(size_t k, Rng& rng)
  {
    Perm perm(k);
    std::iota(perm.begin(), perm.end(), uint8_t{0});
    for (size_t i = k; i > 1; --i)
    {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    return perm;
  }

  /// Collects up to `cap` distinct reachable states by BFS (ground truth,
  /// no engine involved). Expansion honors the constraint like the
  /// engines do.
  template <SpecState S>
  std::vector<S> reachable_states(const SpecDef<S>& spec, size_t cap)
  {
    std::vector<S> out;
    std::unordered_set<uint64_t> seen;
    std::deque<S> queue;
    for (const S& init : spec.init)
    {
      if (seen.insert(fingerprint(init)).second)
      {
        out.push_back(init);
        queue.push_back(init);
      }
    }
    while (!queue.empty() && out.size() < cap)
    {
      const S state = std::move(queue.front());
      queue.pop_front();
      if (!spec.within_constraint(state))
      {
        continue;
      }
      for (const auto& action : spec.actions)
      {
        action.expand(state, [&](const S& next) {
          if (out.size() < cap && seen.insert(fingerprint(next)).second)
          {
            out.push_back(next);
            queue.push_back(next);
          }
        });
      }
    }
    return out;
  }

  /// Distinct canonical fingerprints over a state set — the ground-truth
  /// quotient size.
  template <SpecState S>
  size_t quotient_size(const Symmetry<S>& sym, const std::vector<S>& states)
  {
    std::unordered_set<uint64_t> canon;
    for (const S& s : states)
    {
      canon.insert(canonical_fingerprint(sym, s));
    }
    return canon.size();
  }

  /// Every counterexample step must be a genuine concrete transition:
  /// the named action, expanded from the previous state, produces exactly
  /// the recorded next state.
  template <SpecState S>
  ::testing::AssertionResult concretely_replayable(
    const SpecDef<S>& spec, const Counterexample<S>& cex)
  {
    if (cex.steps.empty() || cex.steps[0].action != "<init>")
    {
      return ::testing::AssertionFailure() << "missing <init> step";
    }
    bool rooted = false;
    for (const S& init : spec.init)
    {
      rooted = rooted || init == cex.steps[0].state;
    }
    if (!rooted)
    {
      return ::testing::AssertionFailure() << "step 0 is not an initial state";
    }
    for (size_t i = 1; i < cex.steps.size(); ++i)
    {
      const auto& step = cex.steps[i];
      bool found = false;
      for (const auto& action : spec.actions)
      {
        if (action.name != step.action)
        {
          continue;
        }
        action.expand(cex.steps[i - 1].state, [&](const S& next) {
          found = found || next == step.state;
        });
      }
      if (!found)
      {
        return ::testing::AssertionFailure()
          << "step " << i << " (" << step.action
          << ") is not a concrete successor of step " << i - 1;
      }
    }
    return ::testing::AssertionSuccess();
  }

  specs::ccfraft::Params small_consensus_model()
  {
    specs::ccfraft::Params p;
    p.n_nodes = 2;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 3;
    p.max_batch = 1;
    p.max_network = 2;
    p.max_copies = 1;
    return p;
  }
}

// ---------------------------------------------------------------------------
// Canonicalizer properties: canon(perm(s)) == canon(s).
// ---------------------------------------------------------------------------

TEST(SymmetryCanonical, ConsensusInvariantUnderRandomPermutations)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  ASSERT_TRUE(spec.has_symmetry());
  const auto states = reachable_states(spec, 300);
  ASSERT_GT(states.size(), 50u);

  Rng rng(7);
  for (const auto& s : states)
  {
    const uint64_t canon_fp = canonical_fingerprint(spec.symmetry, s);
    const auto canon_state = canonicalize(spec.symmetry, s);
    for (int trial = 0; trial < 4; ++trial)
    {
      const Perm perm = random_perm(s.n_nodes, rng);
      const auto permuted = specs::ccfraft::permute_state(s, perm);
      EXPECT_EQ(canonical_fingerprint(spec.symmetry, permuted), canon_fp);
      EXPECT_TRUE(canonicalize(spec.symmetry, permuted) == canon_state);
    }
  }
}

TEST(SymmetryCanonical, ConsensusSignatureIsCovariant)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  const auto states = reachable_states(spec, 200);
  Rng rng(13);
  for (const auto& s : states)
  {
    const Perm perm = random_perm(s.n_nodes, rng);
    const auto permuted = specs::ccfraft::permute_state(s, perm);
    for (size_t i = 0; i < s.n_nodes; ++i)
    {
      EXPECT_EQ(
        specs::ccfraft::node_signature(permuted, perm[i]),
        specs::ccfraft::node_signature(s, i));
    }
  }
}

// A model with named reconfiguration targets only admits the stabilizer
// subgroup: {0b011, 0b101} is preserved by swapping nodes 2 and 3, and by
// nothing else but the identity.
TEST(SymmetryCanonical, ReconfigModelRestrictsToStabilizerSubgroup)
{
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  p.allowed_reconfigs = {0b011, 0b101};
  const auto sym = specs::ccfraft::node_symmetry(p);
  ASSERT_EQ(sym.group.size(), 2u);

  const auto spec = specs::ccfraft::build_spec(p);
  const auto states = reachable_states(spec, 150);
  for (const auto& s : states)
  {
    const uint64_t canon_fp = canonical_fingerprint(spec.symmetry, s);
    for (const Perm& perm : sym.group)
    {
      const auto permuted = specs::ccfraft::permute_state(s, perm);
      EXPECT_EQ(canonical_fingerprint(spec.symmetry, permuted), canon_fp);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: symmetry on vs off.
// ---------------------------------------------------------------------------

// A spec without a Symmetry hook: the flag is inert and results are
// bit-identical.
TEST(SymmetryGolden, FlagIsNoOpWithoutHook)
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
  SpecDef<CounterState> spec;
  spec.name = "counter";
  spec.init = {CounterState{0}};
  spec.actions.push_back(
    {"Increment", [](const CounterState& s, const Emit<CounterState>& emit) {
       if (s.value < 10)
       {
         emit(CounterState{s.value + 1});
       }
     }});

  CheckLimits off;
  CheckLimits on;
  on.symmetry = true;
  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  EXPECT_EQ(r_on.ok, r_off.ok);
  EXPECT_EQ(r_on.stats.distinct_states, r_off.stats.distinct_states);
  EXPECT_EQ(r_on.stats.generated_states, r_off.stats.generated_states);
  EXPECT_EQ(r_on.stats.canonicalized_states, 0u);
  EXPECT_EQ(r_on.stats.symmetry_hits, 0u);
}

TEST(SymmetryGolden, ConsensusExhaustiveSameVerdictQuotientDistinct)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  CheckLimits off;
  off.time_budget_seconds = 120.0;
  CheckLimits on = off;
  on.symmetry = true;

  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  ASSERT_TRUE(r_off.stats.complete);
  ASSERT_TRUE(r_on.stats.complete);
  EXPECT_EQ(r_on.ok, r_off.ok);
  EXPECT_TRUE(r_on.ok);
  EXPECT_GT(r_on.stats.canonicalized_states, 0u);
  EXPECT_GT(r_on.stats.symmetry_hits, 0u);
  EXPECT_LT(r_on.stats.distinct_states, r_off.stats.distinct_states);

  // The engine's symmetry-on distinct count equals the ground-truth
  // quotient of the full (symmetry-off) reachable set.
  const auto all = reachable_states(spec, SIZE_MAX);
  ASSERT_EQ(all.size(), r_off.stats.distinct_states);
  EXPECT_EQ(r_on.stats.distinct_states, quotient_size(spec.symmetry, all));
}

TEST(SymmetryGolden, ConsensusParallelBfsMatchesSequential)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  CheckLimits seq;
  seq.symmetry = true;
  seq.time_budget_seconds = 120.0;
  CheckLimits par = seq;
  par.threads = 4;

  const auto r_seq = model_check(spec, seq);
  const auto r_par = model_check(spec, par);
  ASSERT_TRUE(r_seq.stats.complete);
  ASSERT_TRUE(r_par.stats.complete);
  EXPECT_EQ(r_par.ok, r_seq.ok);
  EXPECT_EQ(r_par.stats.distinct_states, r_seq.stats.distinct_states);
  EXPECT_EQ(r_par.stats.transitions, r_seq.stats.transitions);
}

TEST(SymmetryGolden, ConsensusBugViolationSameDepthConcreteWitness)
{
  specs::ccfraft::Params p;
  p.n_nodes = 2;
  p.max_term = 1;
  p.max_requests = 1;
  p.max_log_len = 4;
  p.max_batch = 2;
  p.max_network = 3;
  p.max_copies = 1;
  p.bugs.nack_overwrites_match_index = true;
  const auto spec = specs::ccfraft::build_spec(p);

  CheckLimits off;
  off.time_budget_seconds = 120.0;
  CheckLimits on = off;
  on.symmetry = true;

  const auto r_off = model_check(spec, off);
  const auto r_on = model_check(spec, on);
  ASSERT_FALSE(r_off.ok);
  ASSERT_FALSE(r_on.ok);
  EXPECT_EQ(r_on.counterexample->property, "MonotonicMatchIndexProp");
  EXPECT_EQ(r_on.counterexample->property, r_off.counterexample->property);
  // BFS over the quotient is still level-minimal for symmetric
  // properties: same shortest-counterexample length.
  EXPECT_EQ(
    r_on.counterexample->steps.size(), r_off.counterexample->steps.size());
  EXPECT_TRUE(concretely_replayable(spec, *r_on.counterexample));
}

TEST(SymmetryGolden, SimulatorSameWalksCanonicalCoverage)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  SimOptions off;
  off.seed = 42;
  off.max_behaviors = 200;
  off.max_depth = 30;
  off.time_budget_seconds = 60.0;
  SimOptions on = off;
  on.symmetry = true;

  const auto r_off = simulate(spec, off);
  const auto r_on = simulate(spec, on);
  // The walks themselves are identical (symmetry only changes the dedup
  // key), so verdict and volume match; coverage counts the quotient.
  EXPECT_EQ(r_on.ok, r_off.ok);
  EXPECT_EQ(r_on.behaviors, r_off.behaviors);
  EXPECT_EQ(r_on.stats.generated_states, r_off.stats.generated_states);
  EXPECT_GT(r_on.stats.canonicalized_states, 0u);
  EXPECT_LE(r_on.stats.distinct_states, r_off.stats.distinct_states);
}

// ---------------------------------------------------------------------------
// Fault-closure interaction (Expander::with_faults).
// ---------------------------------------------------------------------------

namespace
{
  // Two symmetric slots; the symmetry swaps them.
  struct Pair
  {
    std::array<uint8_t, 2> slots{};
    bool operator==(const Pair&) const = default;
    void serialize(ByteSink& sink) const
    {
      sink.u8(slots[0]);
      sink.u8(slots[1]);
    }
    [[nodiscard]] std::string to_string() const
    {
      return std::to_string(slots[0]) + "," + std::to_string(slots[1]);
    }
  };

  SpecDef<Pair> pair_spec(uint8_t cap)
  {
    SpecDef<Pair> def;
    def.name = "pair";
    def.init = {Pair{}};
    for (size_t i = 0; i < 2; ++i)
    {
      def.actions.push_back(
        {"Bump" + std::to_string(i), [i](const Pair& s, const Emit<Pair>& emit) {
           Pair next = s;
           next.slots[i]++;
           emit(next);
         }});
    }
    def.constraint = [cap](const Pair& s) {
      return s.slots[0] <= cap && s.slots[1] <= cap;
    };
    def.symmetry.domain = [](const Pair&) { return size_t{2}; };
    def.symmetry.apply = [](const Pair& s, const Perm& perm) {
      Pair out;
      out.slots[perm[0]] = s.slots[0];
      out.slots[perm[1]] = s.slots[1];
      return out;
    };
    def.symmetry.signature = [](const Pair& s, size_t i) {
      return static_cast<uint64_t>(s.slots[i]);
    };
    return def;
  }
}

// Regression for the base-state vs constraint-gate contract: the base
// state is always emitted (the validator must consider it even where an
// engine would prune it), while fault-generated successors honor the
// bound spec's constraint and are closure-deduplicated.
TEST(SymmetryFaults, ClosureGatesFaultSuccessorsNotBase)
{
  const auto spec = pair_spec(3);
  Expander<Pair> expander(&spec);
  // Fault: bump slot 0 by 3 (can leave the constraint).
  expander.set_fault(
    [](const Pair& s, const Emit<Pair>& emit) {
      Pair next = s;
      next.slots[0] = static_cast<uint8_t>(next.slots[0] + 3);
      emit(next);
    },
    2);

  // Out-of-constraint base: emitted itself, no fault successors.
  std::vector<Pair> emitted;
  expander.with_faults(Pair{{4, 0}}, [&](const Pair& s) {
    emitted.push_back(s);
  });
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], (Pair{{4, 0}}));

  // In-constraint base: one fault layer lands on {3,0} (in constraint),
  // the second layer's {6,0} is gated out.
  emitted.clear();
  expander.with_faults(Pair{{0, 0}}, [&](const Pair& s) {
    emitted.push_back(s);
  });
  ASSERT_EQ(emitted.size(), 2u);
  EXPECT_EQ(emitted[1], (Pair{{3, 0}}));
}

// With symmetry on, the fault closure dedups modulo the orbit: faults
// reaching two states that are relabelings of each other emit only one.
TEST(SymmetryFaults, ClosureDedupsModuloSymmetry)
{
  const auto spec = pair_spec(5);
  Expander<Pair> off(&spec);
  Expander<Pair> on(&spec);
  on.enable_symmetry(true);
  // Fault: bump either slot — from {0,0} the first layer yields {1,0}
  // and {0,1}, one orbit.
  const auto fault = [](const Pair& s, const Emit<Pair>& emit) {
    for (size_t i = 0; i < 2; ++i)
    {
      Pair next = s;
      next.slots[i]++;
      emit(next);
    }
  };
  off.set_fault(fault, 1);
  on.set_fault(fault, 1);

  std::vector<Pair> got_off;
  std::vector<Pair> got_on;
  off.with_faults(Pair{}, [&](const Pair& s) { got_off.push_back(s); });
  on.with_faults(Pair{}, [&](const Pair& s) { got_on.push_back(s); });
  EXPECT_EQ(got_off.size(), 3u); // base + {1,0} + {0,1}
  EXPECT_EQ(got_on.size(), 2u); // base + one orbit representative
}

// ---------------------------------------------------------------------------
// Campaign plumbing.
// ---------------------------------------------------------------------------

TEST(SymmetryCampaign, SharedStoreCampaignReportsCanonicalization)
{
  const auto spec = specs::ccfraft::build_spec(small_consensus_model());
  Campaign<specs::ccfraft::State>::Options copts;
  copts.total_seconds = 6.0;
  copts.check.symmetry = true;
  copts.sim.symmetry = true;
  copts.check.max_distinct_states = 20'000;
  copts.sim.max_behaviors = 100;
  copts.sim.max_depth = 20;
  Campaign<specs::ccfraft::State> campaign(spec, copts);
  const auto report = campaign.run();

  const auto* check_phase = report.phase(EngineId::Checker);
  ASSERT_NE(check_phase, nullptr);
  EXPECT_TRUE(check_phase->ok);
  EXPECT_GT(check_phase->stats.canonicalized_states, 0u);
  const auto* sim_phase = report.phase(EngineId::Simulator);
  ASSERT_NE(sim_phase, nullptr);
  EXPECT_TRUE(sim_phase->ok);
  EXPECT_GT(sim_phase->stats.canonicalized_states, 0u);

  // Union accounting still holds on the canonical-keyed shared store.
  uint64_t contributions = 0;
  for (const auto& phase : report.phases)
  {
    contributions += phase.store_new;
  }
  EXPECT_EQ(report.union_distinct, contributions);

  // The JSON schema carries the new per-phase fields.
  EXPECT_NE(report.to_json().find("canonicalized_states"), std::string::npos);
  EXPECT_NE(report.to_json().find("symmetry_hits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Equivalence with the copy-based relabeling and the stable_sort
// canonicalizer (test-local references of the earlier implementations).
// ---------------------------------------------------------------------------

namespace
{
  namespace reference
  {
    using specs::ccfraft::EType;
    using specs::ccfraft::SpecEntry;
    using specs::ccfraft::SpecMessage;
    using specs::ccfraft::SpecNode;
    using specs::ccfraft::State;
    using specs::ccfraft::permute_bits;
    using specs::ccfraft::permute_nid;

    SpecEntry permute_entry(const SpecEntry& e, const Perm& perm)
    {
      SpecEntry out = e;
      switch (e.type)
      {
        case EType::Reconfig:
          out.config = permute_bits(e.config, perm);
          break;
        case EType::Retire:
          out.payload = permute_nid(e.payload, perm);
          break;
        case EType::Data:
        case EType::Sig:
          break;
      }
      return out;
    }

    SpecMessage permute_message(const SpecMessage& m, const Perm& perm)
    {
      SpecMessage out = m;
      out.from = permute_nid(m.from, perm);
      out.to = permute_nid(m.to, perm);
      for (auto& e : out.entries)
      {
        e = permute_entry(e, perm);
      }
      return out;
    }

    SpecNode permute_node(const SpecNode& node, const Perm& perm)
    {
      SpecNode out = node;
      out.voted_for = permute_nid(node.voted_for, perm);
      out.votes_granted = permute_bits(node.votes_granted, perm);
      for (size_t i = 0; i < node.log.size(); ++i)
      {
        out.log[i] = permute_entry(node.log[i], perm);
      }
      for (size_t j = 0; j < perm.size(); ++j)
      {
        out.sent_index[perm[j]] = node.sent_index[j];
        out.match_index[perm[j]] = node.match_index[j];
      }
      return out;
    }

    /// Copy the state, then copy each node and message again.
    State permute_state(const State& s, const Perm& perm)
    {
      State out = s;
      for (size_t i = 0; i < perm.size(); ++i)
      {
        out.nodes[perm[i]] = permute_node(s.nodes[i], perm);
      }
      for (auto& [msg, count] : out.network)
      {
        msg = permute_message(msg, perm);
      }
      std::sort(
        out.network.begin(),
        out.network.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
      return out;
    }

    /// The canonicalizer with freshly allocated vectors and
    /// std::stable_sort; returns the canonical bytes' fingerprint.
    template <SpecState S>
    uint64_t canonical_fingerprint(
      const Symmetry<S>& sym, const S& state, bool* changed)
    {
      ByteSink sink;
      state.serialize(sink);
      const std::vector<uint8_t> input = sink.bytes();
      std::vector<uint8_t> best;
      bool have = false;
      const auto consider = [&](const Perm& perm) {
        bool identity = true;
        for (size_t i = 0; i < perm.size(); ++i)
        {
          identity = identity && perm[i] == i;
        }
        std::vector<uint8_t> bytes = input;
        if (!identity)
        {
          ByteSink candidate;
          sym.apply(state, perm).serialize(candidate);
          bytes = candidate.bytes();
        }
        if (!have || bytes < best)
        {
          best = bytes;
          have = true;
        }
      };
      if (!sym.group.empty())
      {
        for (const Perm& perm : sym.group)
        {
          consider(perm);
        }
      }
      else if (const size_t k = sym.domain(state); k <= 1)
      {
        best = input;
      }
      else
      {
        std::vector<uint64_t> sig(k, 0);
        for (size_t i = 0; i < k; ++i)
        {
          sig[i] = sym.signature(state, i);
        }
        std::vector<uint8_t> order(k);
        std::iota(order.begin(), order.end(), uint8_t{0});
        std::stable_sort(
          order.begin(), order.end(), [&](uint8_t a, uint8_t b) {
            return sig[a] < sig[b];
          });
        std::vector<std::pair<size_t, size_t>> blocks;
        for (size_t p = 0; p < k;)
        {
          size_t q = p + 1;
          while (q < k && sig[order[q]] == sig[order[p]])
          {
            ++q;
          }
          blocks.emplace_back(p, q);
          p = q;
        }
        const bool ties = blocks.size() < k;
        if (ties)
        {
          for (const auto& [start, end] : blocks)
          {
            std::sort(order.begin() + start, order.begin() + end);
          }
        }
        Perm perm(k);
        for (;;)
        {
          for (size_t p = 0; p < k; ++p)
          {
            perm[order[p]] = static_cast<uint8_t>(p);
          }
          consider(perm);
          size_t b = 0;
          for (; ties && b < blocks.size(); ++b)
          {
            if (std::next_permutation(
                  order.begin() + blocks[b].first,
                  order.begin() + blocks[b].second))
            {
              break;
            }
          }
          if (!ties || b == blocks.size())
          {
            break;
          }
        }
      }
      *changed = best != input;
      return fnv1a(best.data(), best.size());
    }
  }

  std::vector<Perm> all_perms(size_t k)
  {
    std::vector<Perm> out;
    Perm perm(k);
    std::iota(perm.begin(), perm.end(), uint8_t{0});
    do
    {
      out.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return out;
  }

  /// On every given state: permute_state matches the reference for all
  /// of S3, and the canonical fingerprint and changed flag match the
  /// reference canonicalizer (run over the reference relabeling), on the
  /// state and on every relabeling of it.
  void expect_equivalent_to_reference(
    const SpecDef<specs::ccfraft::State>& spec,
    const std::vector<specs::ccfraft::State>& states)
  {
    Symmetry<specs::ccfraft::State> ref_sym = spec.symmetry;
    ref_sym.apply = reference::permute_state;
    const auto perms = all_perms(3);
    size_t relabeled = 0;
    for (const auto& s : states)
    {
      for (const Perm& perm : perms)
      {
        const auto permuted = specs::ccfraft::permute_state(s, perm);
        ASSERT_TRUE(permuted == reference::permute_state(s, perm))
          << s.to_string();
        for (const auto* state : {&s, &permuted})
        {
          bool changed = false;
          bool ref_changed = false;
          const uint64_t fp =
            canonical_fingerprint(spec.symmetry, *state, &changed);
          ASSERT_EQ(
            fp,
            reference::canonical_fingerprint(ref_sym, *state, &ref_changed))
            << state->to_string();
          ASSERT_EQ(changed, ref_changed) << state->to_string();
          relabeled += changed ? 1 : 0;
        }
      }
    }
    EXPECT_GT(relabeled, 0u);
  }
}

// Full symmetric group, every reachable state (all initial states, so
// passive joiners and varied configurations): the sorted-signature fast
// path and tie blocks.
TEST(SymmetryEquivalence, FullGroupMatchesCopyingReference)
{
  specs::ccfraft::Params p;
  p.n_nodes = 3;
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 2;
  p.max_batch = 1;
  p.max_network = 1;
  p.max_copies = 1;
  auto spec = specs::ccfraft::build_spec(p);
  spec.init = specs::ccfraft::all_initial_states(p);
  const auto states = reachable_states(spec, SIZE_MAX);
  ASSERT_EQ(states.size(), 22'390u);
  expect_equivalent_to_reference(spec, states);
}

// Restricted group with reconfiguration, on the states of seeded random
// walks (the exhaustive set is too large), each also with a Retire entry
// in a log and an AppendEntries carrying Reconfig and Retire entries
// added: a committed removal lies deeper than the walks reach, and both
// functions are total over states.
TEST(SymmetryEquivalence, ReconfigGroupMatchesCopyingReference)
{
  using namespace specs::ccfraft;
  Params p;
  p.n_nodes = 3;
  p.initial_config = 0b011;
  p.allowed_reconfigs = {0b011, 0b110};
  p.max_term = 2;
  p.max_requests = 1;
  p.max_log_len = 6;
  p.max_batch = 2;
  p.max_network = 2;
  p.max_copies = 1;
  const auto spec = build_spec(p);
  ASSERT_EQ(spec.symmetry.group.size(), 2u);

  SimOptions walks;
  walks.seed = 5;
  walks.max_behaviors = 400;
  walks.max_depth = 60;
  walks.time_budget_seconds = 600.0; // the behavior cap ends the run
  Simulator<State> sim(spec, walks);
  std::vector<State> states;
  std::unordered_set<uint64_t> seen;
  sim.set_observer([&](const State& s) {
    if (seen.insert(fingerprint(s)).second)
    {
      states.push_back(s);
    }
  });
  ASSERT_TRUE(sim.run().ok);
  ASSERT_GT(states.size(), 1000u);

  const size_t walked = states.size();
  for (size_t i = 0; i < walked; ++i)
  {
    State s = states[i];
    const auto retiring = static_cast<Nid>(1 + i % 3);
    s.nodes[0].log.push_back({1, EType::Retire, retiring, 0});
    SpecMessage ae;
    ae.from = 1;
    ae.to = static_cast<Nid>(2 + i % 2);
    ae.term = 1;
    ae.entries = {{1, EType::Reconfig, 0, 0b110}, {1, EType::Retire, retiring, 0}};
    s.add_message(ae);
    states.push_back(std::move(s));
  }
  expect_equivalent_to_reference(spec, states);
}

// ---------------------------------------------------------------------------
// Exact counter goldens on the probe model (3 nodes, term 2, log 3, every
// initial state, fingerprint-only store). The values were measured with
// the copying canonicalizer and the allocating store; a change to the
// successor path that moves any of them changes what the checker does.
// ---------------------------------------------------------------------------

namespace
{
  CheckResult<specs::ccfraft::State> check_probe_model(unsigned threads)
  {
    specs::ccfraft::Params p;
    p.n_nodes = 3;
    p.max_term = 2;
    p.max_requests = 1;
    p.max_log_len = 3;
    p.max_batch = 1;
    p.max_network = 1;
    p.max_copies = 1;
    auto spec = specs::ccfraft::build_spec(p);
    spec.init = specs::ccfraft::all_initial_states(p);
    CheckLimits limits;
    limits.threads = threads;
    limits.symmetry = true;
    limits.store.mode = StoreMode::fingerprint_only;
    return model_check(spec, limits);
  }

  void expect_probe_counts(const CheckResult<specs::ccfraft::State>& r)
  {
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(r.stats.complete);
    EXPECT_EQ(r.stats.distinct_states, 245'480u);
    EXPECT_EQ(r.stats.generated_states, 389'144u);
    EXPECT_EQ(r.stats.canonicalized_states, 389'153u);
  }
}

TEST(SymmetryGolden, ProbeModelCountersOneWorker)
{
  const auto r = check_probe_model(1);
  expect_probe_counts(r);
  EXPECT_EQ(r.stats.symmetry_hits, 338'150u);
}

// At four workers symmetry_hits depends on which orbit member of a state
// is admitted first, so only the schedule-independent counts are pinned.
TEST(SymmetryGolden, ProbeModelCountersFourWorkers)
{
  expect_probe_counts(check_probe_model(4));
}
