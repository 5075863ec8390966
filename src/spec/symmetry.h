// Canonicalization under a Symmetry<S> group (docs/SPEC.md "Symmetry
// reduction").
//
// canonical_fingerprint() maps every member of a state's orbit to the same
// 64-bit fingerprint by picking a canonical representative: the orbit
// member with the lexicographically-least serialized bytes (among the
// candidates considered). The Expander fingerprints that representative,
// so every engine dedups modulo symmetry without touching concrete state
// bodies — stored bodies, predecessor links and counterexamples stay
// concrete.
//
// Two regimes:
//   * Full symmetric group (Symmetry::group empty): the fast path sorts
//     identities by their label-invariant signature — distinct signatures
//     pin a unique canonical relabeling with ONE apply+serialize. Tied
//     signatures form blocks; only permutations within tie blocks are
//     enumerated (product of block factorials, not domain!), and the
//     lexicographically-least serialization wins.
//   * Restricted group (Symmetry::group non-empty): every group element
//     is applied and the least serialization wins. Groups are small in
//     practice (<= 5 permutable nodes => <= 120 elements).
//
// Orbit-invariance of the result only needs the signature to be
// covariant (sig(apply(s, p), p[i]) == sig(s, i)): both s and apply(s, p)
// then yield the same candidate set, hence the same least serialization.
// A weak (collision-prone) signature merely enlarges tie blocks.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "spec/spec.h"
#include "util/check.h"

namespace scv::spec
{
  namespace symmetry_detail
  {
    template <SpecState S>
    void serialize_into(const S& state, ByteSink& sink)
    {
      sink.clear();
      state.serialize(sink);
    }

    inline bool lex_less(
      const std::vector<uint8_t>& a, const std::vector<uint8_t>& b)
    {
      return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end());
    }

    inline bool is_identity(const Perm& perm)
    {
      for (size_t i = 0; i < perm.size(); ++i)
      {
        if (perm[i] != i)
        {
          return false;
        }
      }
      return true;
    }

    /// Stable insertion sort of ids[0, n) by key(id). For the n <= 16
    /// identities of a state it gives std::stable_sort's order without
    /// its temporary buffer.
    template <class Key>
    void insertion_sort(uint8_t* ids, size_t n, Key key)
    {
      for (size_t i = 1; i < n; ++i)
      {
        const uint8_t id = ids[i];
        size_t j = i;
        for (; j > 0 && key(ids[j - 1]) > key(id); --j)
        {
          ids[j] = ids[j - 1];
        }
        ids[j] = id;
      }
    }

    /// Per-thread working set of canonical_bytes(). Canonicalization runs
    /// on every generated state, so none of it may allocate in steady
    /// state: the vectors keep their capacity between calls.
    struct CanonScratch
    {
      ByteSink sink;
      std::vector<uint8_t> input;
      std::vector<uint8_t> best;
      Perm perm;
    };

    inline CanonScratch& canon_scratch()
    {
      thread_local CanonScratch scratch;
      return scratch;
    }

    /// Shared implementation: computes the canonical representative's
    /// serialized bytes (left in the calling thread's scratch.best) and
    /// optionally the representative itself (into *best_state when
    /// non-null). Returns true when the representative differs from the
    /// input state.
    ///
    /// Not reentrant: the Symmetry hooks and S::serialize must not
    /// canonicalize on the same thread (the per-thread scratch would be
    /// overwritten mid-call). None do — they relabel and append bytes.
    ///
    /// The representative is the lexicographic minimum over the CANDIDATE
    /// set only — the input itself participates exactly when the identity
    /// is a candidate. (Seeding `best` with the input unconditionally
    /// would break orbit invariance: the sorted-signature fast path
    /// considers a single relabeling, which is the identity for the orbit
    /// member that is already sorted but not for its siblings, so the
    /// siblings would keep their own bytes whenever those happen to
    /// compare lower.)
    template <SpecState S>
    bool canonical_bytes(
      const Symmetry<S>& sym, const S& state, S* best_state)
    {
      CanonScratch& scratch = canon_scratch();
      std::vector<uint8_t>& input = scratch.input;
      std::vector<uint8_t>& best = scratch.best;

      serialize_into(state, scratch.sink);
      input = scratch.sink.bytes();
      best.clear();
      bool have = false;

      const auto consider = [&](const Perm& perm) {
        if (is_identity(perm))
        {
          // The identity's candidate is the input itself — no apply.
          if (!have || lex_less(input, best))
          {
            best = input;
            if (best_state != nullptr)
            {
              *best_state = state;
            }
          }
          have = true;
          return;
        }
        const S candidate = sym.apply(state, perm);
        serialize_into(candidate, scratch.sink);
        if (!have || lex_less(scratch.sink.bytes(), best))
        {
          best = scratch.sink.bytes();
          have = true;
          if (best_state != nullptr)
          {
            *best_state = candidate;
          }
        }
      };

      if (!sym.group.empty())
      {
        // Restricted group: every element is a candidate (a group always
        // contains the identity, so the input is too).
        for (const Perm& perm : sym.group)
        {
          consider(perm);
        }
        return best != input;
      }

      const size_t k = sym.domain ? sym.domain(state) : 0;
      if (k <= 1)
      {
        best = input;
        return false;
      }
      constexpr size_t max_k = 16; // enumeration is factorial in ties
      SCV_CHECK(k <= max_k);

      // Full symmetric group: sort identities by covariant signature.
      std::array<uint64_t, max_k> sig{};
      if (sym.signature)
      {
        for (size_t i = 0; i < k; ++i)
        {
          sig[i] = sym.signature(state, i);
        }
      }
      std::array<uint8_t, max_k> order{};
      std::iota(order.begin(), order.begin() + k, uint8_t{0});
      insertion_sort(order.data(), k, [&](uint8_t id) { return sig[id]; });

      bool ties = false;
      for (size_t p = 0; p + 1 < k && !ties; ++p)
      {
        ties = sig[order[p]] == sig[order[p + 1]];
      }

      Perm& perm = scratch.perm;
      perm.resize(k);
      if (!ties)
      {
        // Distinct signatures pin the canonical relabeling: identity
        // order[p] takes position p.
        for (size_t p = 0; p < k; ++p)
        {
          perm[order[p]] = static_cast<uint8_t>(p);
        }
        consider(perm);
        return best != input;
      }

      // Tie blocks: enumerate permutations of identities *within* each
      // block of equal signatures (an odometer of per-block
      // next_permutation sweeps), never across blocks.
      std::array<std::pair<uint8_t, uint8_t>, max_k> blocks{}; // [start, end)
      size_t block_count = 0;
      for (size_t p = 0; p < k;)
      {
        size_t q = p + 1;
        while (q < k && sig[order[q]] == sig[order[p]])
        {
          ++q;
        }
        blocks[block_count++] = {
          static_cast<uint8_t>(p), static_cast<uint8_t>(q)};
        p = q;
      }
      // Canonical start point for enumeration: sort each block's
      // identities ascending so the sweep is the same from every orbit
      // member.
      for (size_t b = 0; b < block_count; ++b)
      {
        insertion_sort(
          order.data() + blocks[b].first,
          blocks[b].second - blocks[b].first,
          [](uint8_t id) { return id; });
      }
      for (;;)
      {
        for (size_t p = 0; p < k; ++p)
        {
          perm[order[p]] = static_cast<uint8_t>(p);
        }
        consider(perm);
        // Odometer step: advance the first block with a next permutation,
        // resetting the blocks before it.
        size_t b = 0;
        for (; b < block_count; ++b)
        {
          if (std::next_permutation(
                order.begin() + blocks[b].first,
                order.begin() + blocks[b].second))
          {
            break;
          }
          // next_permutation wrapped this block back to sorted order.
        }
        if (b == block_count)
        {
          break;
        }
      }
      return best != input;
    }
  }

  /// The canonical orbit representative of `state`. Sets *changed (when
  /// non-null) to whether the representative differs from the input.
  template <SpecState S>
  S canonicalize(const Symmetry<S>& sym, const S& state, bool* changed = nullptr)
  {
    S best = state;
    const bool c = sym.enabled() ?
      symmetry_detail::canonical_bytes(sym, state, &best) :
      false;
    if (changed != nullptr)
    {
      *changed = c;
    }
    return best;
  }

  /// Fingerprint of the canonical representative — equal for every member
  /// of an orbit. The representative itself is never materialized beyond
  /// its serialization, which lives in per-thread scratch: steady-state
  /// calls allocate nothing beyond what Symmetry::apply does.
  template <SpecState S>
  uint64_t canonical_fingerprint(
    const Symmetry<S>& sym, const S& state, bool* changed = nullptr)
  {
    if (!sym.enabled())
    {
      if (changed != nullptr)
      {
        *changed = false;
      }
      return fingerprint(state);
    }
    const bool c = symmetry_detail::canonical_bytes<S>(sym, state, nullptr);
    if (changed != nullptr)
    {
      *changed = c;
    }
    const std::vector<uint8_t>& best = symmetry_detail::canon_scratch().best;
    return fnv1a(best.data(), best.size());
  }
}
