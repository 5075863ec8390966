// Heap-allocation regression test for the checker's successor path:
// expand -> canonicalize -> fingerprint -> store insert -> drop.
//
// This binary replaces the global operator new with a counting one. On a
// symmetric spec whose state is trivially copyable, nothing on that path
// may allocate per generated state: canonicalization works in per-thread
// scratch, each worker builds one emit callback per level, a
// fingerprint-only store reuses dropped frontier-body nodes, and the
// level barrier reuses its vectors. What remains is per level (worker
// threads, frontier growth) and per store (index rehash, hot-arena
// blocks), so the whole check stays far below one allocation per 16
// distinct states. A per-state allocation anywhere on the path breaks the
// bound several times over.
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>

#include <gtest/gtest.h>

#include "spec/model_checker.h"

namespace
{
  std::atomic<uint64_t> g_allocations{0};

  void* counted_alloc(std::size_t size)
  {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
    {
      return p;
    }
    throw std::bad_alloc();
  }
}

void* operator new(std::size_t size)
{
  return counted_alloc(size);
}

void* operator new[](std::size_t size)
{
  return counted_alloc(size);
}

void operator delete(void* p) noexcept
{
  std::free(p);
}

void operator delete[](void* p) noexcept
{
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept
{
  std::free(p);
}

void operator delete[](void* p, std::size_t) noexcept
{
  std::free(p);
}

using namespace scv;
using namespace scv::spec;

namespace
{
  constexpr size_t kCounters = 4;
  constexpr uint8_t kMax = 60;

  /// Four interchangeable counters in 0..kMax; any one may step up by 1.
  /// Symmetric under every permutation of the counters, so the quotient
  /// is the multisets: C(kMax + 4, 4) = 635,376 states over 241 levels.
  struct Counters
  {
    std::array<uint8_t, kCounters> value{};

    bool operator==(const Counters&) const = default;

    void serialize(ByteSink& sink) const
    {
      for (const uint8_t v : value)
      {
        sink.u8(v);
      }
    }

    [[nodiscard]] std::string to_string() const
    {
      std::string out;
      for (const uint8_t v : value)
      {
        out += std::to_string(v) + " ";
      }
      return out;
    }
  };
  static_assert(std::is_trivially_copyable_v<Counters>);

  constexpr uint64_t kQuotient = 635'376;

  SpecDef<Counters> counters_spec()
  {
    SpecDef<Counters> spec;
    spec.name = "counters";
    spec.init = {Counters{}};
    spec.actions.push_back(
      {"Step", [](const Counters& s, const Emit<Counters>& emit) {
         for (size_t i = 0; i < kCounters; ++i)
         {
           if (s.value[i] < kMax)
           {
             Counters next = s;
             next.value[i]++;
             emit(next);
           }
         }
       }});
    spec.invariants.push_back(
      {"Bounded", [](const Counters& s) {
         for (const uint8_t v : s.value)
         {
           if (v > kMax)
           {
             return false;
           }
         }
         return true;
       }});
    spec.symmetry.domain = [](const Counters&) { return kCounters; };
    spec.symmetry.apply = [](const Counters& s, const Perm& perm) {
      Counters out;
      for (size_t i = 0; i < kCounters; ++i)
      {
        out.value[perm[i]] = s.value[i];
      }
      return out;
    };
    spec.symmetry.signature = [](const Counters& s, size_t i) {
      return static_cast<uint64_t>(s.value[i]);
    };
    return spec;
  }

  struct Measured
  {
    CheckResult<Counters> result;
    uint64_t allocations;
  };

  Measured check_counting(const SpecDef<Counters>& spec, unsigned threads)
  {
    CheckLimits limits;
    limits.threads = threads;
    limits.symmetry = true;
    limits.store.mode = StoreMode::fingerprint_only;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    auto result = model_check(spec, limits);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    return {std::move(result), after - before};
  }

  void expect_few_allocations(unsigned threads)
  {
    const auto spec = counters_spec();
    const Measured m = check_counting(spec, threads);
    ASSERT_TRUE(m.result.ok);
    ASSERT_TRUE(m.result.stats.complete);
    ASSERT_EQ(m.result.stats.distinct_states, kQuotient);
    // The canonicalizer ran on every generated state (one initial state,
    // so the counts agree) and relabeled many of them.
    EXPECT_EQ(
      m.result.stats.canonicalized_states, m.result.stats.generated_states);
    EXPECT_GT(m.result.stats.symmetry_hits, kQuotient);
    EXPECT_LT(m.allocations, m.result.stats.distinct_states / 16)
      << m.allocations << " heap allocations for "
      << m.result.stats.generated_states << " generated states";
  }
}

TEST(SuccessorAllocations, OneWorkerStaysBelowOnePerSixteenStates)
{
  expect_few_allocations(1);
}

TEST(SuccessorAllocations, FourWorkersStayBelowOnePerSixteenStates)
{
  expect_few_allocations(4);
}
