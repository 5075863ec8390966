#include "specs/consensus/symmetry.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "util/hash.h"

namespace scv::specs::ccfraft
{
  Bits permute_bits(Bits set, const spec::Perm& perm)
  {
    Bits out = 0;
    for (size_t i = 0; i < perm.size(); ++i)
    {
      if ((set & (1u << i)) != 0)
      {
        out = static_cast<Bits>(out | (1u << perm[i]));
      }
    }
    // Bits beyond the permuted domain pass through (reachable states only
    // set bits below n_nodes, but be total anyway).
    const Bits domain_mask =
      static_cast<Bits>((1u << perm.size()) - 1u);
    return static_cast<Bits>(out | (set & ~domain_mask));
  }

  Nid permute_nid(Nid n, const spec::Perm& perm)
  {
    if (n == 0 || n > perm.size())
    {
      return n;
    }
    return static_cast<Nid>(perm[n - 1] + 1);
  }

  namespace
  {
    SpecEntry permute_entry(const SpecEntry& e, const spec::Perm& perm)
    {
      SpecEntry out = e;
      switch (e.type)
      {
        case EType::Reconfig:
          out.config = permute_bits(e.config, perm);
          break;
        case EType::Retire:
          // payload is the retiring node for Retire entries...
          out.payload = permute_nid(e.payload, perm);
          break;
        case EType::Data:
        case EType::Sig:
          // ...and a client-request id for Data — not a node label.
          break;
      }
      return out;
    }

    SpecMessage permute_message(const SpecMessage& m, const spec::Perm& perm)
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

    SpecNode permute_node(const SpecNode& node, const spec::Perm& perm)
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
  }

  State permute_state(const State& s, const spec::Perm& perm)
  {
    State out = s;
    for (size_t i = 0; i < perm.size(); ++i)
    {
      out.nodes[perm[i]] = permute_node(s.nodes[i], perm);
    }
    // Distinct messages stay distinct under a bijection of endpoints, so
    // the multiset counts carry over; only the sort order changes.
    for (auto& [msg, count] : out.network)
    {
      msg = permute_message(msg, perm);
    }
    std::sort(
      out.network.begin(), out.network.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
    return out;
  }

  uint64_t node_signature(const State& s, size_t i)
  {
    const Nid self = static_cast<Nid>(i + 1);
    const SpecNode& node = s.nodes[i];
    uint64_t h = fnv1a_init;
    const auto mix = [&h](uint64_t v) { h = hash_combine(h, v); };

    mix(static_cast<uint64_t>(node.role));
    mix(node.current_term);
    // voted_for: the *class* of the reference (none / self / other) is
    // label-invariant; the concrete other-node id is not.
    mix(node.voted_for == 0 ? 0u : node.voted_for == self ? 1u : 2u);
    mix(static_cast<uint64_t>(count_nodes(node.votes_granted)));
    mix(has_node(node.votes_granted, self) ? 1u : 0u);
    mix(static_cast<uint64_t>(node.membership));
    mix(node.commit_index);
    // Snapshot watermark: an index and a term, both label-invariant
    // scalars (no node ids), so they mix directly.
    mix(node.snap_idx);
    mix(node.snap_term);
    mix(node.log.size());
    for (const SpecEntry& e : node.log)
    {
      mix(e.term);
      mix(static_cast<uint64_t>(e.type));
      switch (e.type)
      {
        case EType::Data:
          mix(e.payload); // request id: label-invariant
          break;
        case EType::Retire:
          mix(e.payload == self ? 1u : 0u);
          break;
        case EType::Reconfig:
          mix(static_cast<uint64_t>(count_nodes(e.config)));
          mix(has_node(e.config, self) ? 1u : 0u);
          break;
        case EType::Sig:
          break;
      }
    }
    // Per-node sent/match values as sorted multisets (positions are node
    // labels; the value distribution is not). The clamp keeps the
    // indexing provably in-bounds (n_nodes <= kMaxNodes on all states).
    const size_t n = std::min<size_t>(s.n_nodes, kMaxNodes);
    std::array<uint8_t, kMaxNodes> sent{};
    std::array<uint8_t, kMaxNodes> match{};
    for (size_t j = 0; j < n; ++j)
    {
      sent[j] = node.sent_index[j];
      match[j] = node.match_index[j];
    }
    // Insertion sort of the n <= kMaxNodes prefix. std::sort's 16-element
    // threshold branch trips GCC 12's -Warray-bounds on these 7-byte
    // arrays under UBSan instrumentation (a false positive that breaks
    // the -Werror sanitizer build).
    const auto sort_prefix = [n](std::array<uint8_t, kMaxNodes>& a) {
      for (size_t i = 1; i < n; ++i)
      {
        for (size_t j = i; j > 0 && a[j - 1] > a[j]; --j)
        {
          std::swap(a[j - 1], a[j]);
        }
      }
    };
    sort_prefix(sent);
    sort_prefix(match);
    for (size_t j = 0; j < n; ++j)
    {
      mix(sent[j]);
      mix(match[j]);
    }
    // In-flight traffic touching this node. The network multiset's sort
    // order is NOT label-invariant (relabeled endpoints re-sort), so the
    // per-message contributions must combine commutatively: hash each
    // message's label-invariant content and sum.
    uint64_t traffic = 0;
    for (const auto& [msg, count] : s.network)
    {
      if (msg.from != self && msg.to != self)
      {
        continue;
      }
      uint64_t m = fnv1a_init;
      m = hash_combine(m, static_cast<uint64_t>(msg.type));
      m = hash_combine(m, msg.from == self ? 1u : 0u);
      m = hash_combine(m, msg.to == self ? 1u : 0u);
      m = hash_combine(m, msg.term);
      m = hash_combine(m, msg.prev_idx);
      m = hash_combine(m, msg.prev_term);
      m = hash_combine(m, msg.commit);
      m = hash_combine(m, msg.success ? 1u : 0u);
      m = hash_combine(m, msg.last_idx);
      m = hash_combine(m, msg.last_log_idx);
      m = hash_combine(m, msg.last_log_term);
      m = hash_combine(m, msg.entries.size());
      m = hash_combine(m, count);
      traffic += m; // commutative
    }
    mix(traffic);
    return h;
  }

  spec::Symmetry<State> node_symmetry(const Params& params)
  {
    spec::Symmetry<State> sym;
    sym.domain = [](const State& s) { return static_cast<size_t>(s.n_nodes); };
    sym.apply = [](const State& s, const spec::Perm& perm) {
      return permute_state(s, perm);
    };
    sym.signature = [](const State& s, size_t i) {
      return node_signature(s, i);
    };

    if (!params.allowed_reconfigs.empty())
    {
      // ChangeConfiguration names concrete node sets, so only
      // permutations mapping the allowed set onto itself are
      // automorphisms. Enumerate the stabilizer subgroup explicitly
      // (n_nodes <= 7 => at most 5040 candidates, once per spec build).
      const std::set<Bits> allowed(
        params.allowed_reconfigs.begin(), params.allowed_reconfigs.end());
      spec::Perm perm(params.n_nodes);
      std::iota(perm.begin(), perm.end(), uint8_t{0});
      do
      {
        const bool stabilizes = std::all_of(
          allowed.begin(), allowed.end(), [&](Bits cfg) {
            return allowed.contains(permute_bits(cfg, perm));
          });
        if (stabilizes)
        {
          sym.group.push_back(perm);
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
    return sym;
  }
}
