#include "crypto/merkle_tree.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace scv::crypto
{
  Digest MerkleTree::combine(const Digest& left, const Digest& right)
  {
    Sha256 h;
    const uint8_t tag = 0x01; // interior-node domain separation
    h.update(&tag, 1);
    h.update(left.data(), left.size());
    h.update(right.data(), right.size());
    return h.finalize();
  }

  MerkleTree::MerkleTree(const std::vector<Digest>& leaves)
  {
    leaves_.reserve(leaves.size());
    for (const auto& leaf : leaves)
    {
      append(leaf);
    }
  }

  size_t MerkleTree::append(const Digest& leaf)
  {
    leaves_.push_back(leaf);
    // A node landing at an odd index completes its parent's perfect
    // subtree; carry upward like a binary counter.
    for (size_t h = 1; level(h - 1).size() % 2 == 0; ++h)
    {
      if (h > upper_.size())
      {
        upper_.emplace_back();
      }
      const auto& below = level(h - 1);
      upper_[h - 1].push_back(combine(below[below.size() - 2], below.back()));
    }
    return leaves_.size() - 1;
  }

  Digest MerkleTree::range_root(size_t begin, size_t end) const
  {
    // Peaks of the range, one per set bit h of its length, each the
    // digest ending at `end` on level h; fold them right to left.
    const size_t m = end - begin;
    size_t h = static_cast<size_t>(std::countr_zero(m));
    Digest acc = level(h)[(end >> h) - 1];
    for (++h; (m >> h) != 0; ++h)
    {
      if (((m >> h) & 1) != 0)
      {
        acc = combine(level(h)[(end >> h) - 1], acc);
      }
    }
    return acc;
  }

  Digest MerkleTree::root() const
  {
    if (size() == 0)
    {
      return sha256("");
    }
    return range_root(0, size());
  }

  Path MerkleTree::path(size_t index, size_t prefix) const
  {
    SCV_CHECK(index < prefix && prefix <= size());
    // Walk RFC 6962's recursion top-down over [0, prefix), recording the
    // sibling at each split; the proof lists them bottom-up.
    Path out;
    size_t begin = 0;
    size_t end = prefix;
    while (end - begin > 1)
    {
      // Largest power of two strictly less than the range length.
      const size_t k = std::bit_floor(end - begin - 1);
      if (index < begin + k)
      {
        out.push_back({range_root(begin + k, end), false});
        end = begin + k;
      }
      else
      {
        out.push_back({range_root(begin, begin + k), true});
        begin += k;
      }
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

  void MerkleTree::truncate(size_t new_size)
  {
    SCV_CHECK(new_size <= size());
    leaves_.resize(new_size);
    for (size_t h = 1; h <= upper_.size(); ++h)
    {
      upper_[h - 1].resize(new_size >> h);
    }
  }

  bool MerkleTree::verify_path(
    const Digest& leaf, const Path& path, const Digest& expected_root)
  {
    Digest running = leaf;
    for (const auto& step : path)
    {
      running = step.sibling_on_left ? combine(step.sibling, running) :
                                       combine(running, step.sibling);
    }
    return running == expected_root;
  }
}
