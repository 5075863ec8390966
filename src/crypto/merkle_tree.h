// Append-only Merkle tree over ledger entries (§2.1).
//
// CCF's signature transactions embed the root of a Merkle tree built over
// the whole log so far. The tree shape is RFC 6962's: the root over n > 1
// leaves combines the root over the first k leaves with the root over the
// rest, where k is the largest power of two below n.
//
// Level layout: level(h)[i] is the root of the perfect subtree over
// leaves [i·2^h, (i+1)·2^h), so level(0) is the leaves and level(h) holds
// size() >> h digests — about 2n digests in all. Every perfect
// subtree is cached the moment its last leaf arrives, so append() hashes
// one interior node per leaf amortized and truncate(n) just resizes level
// h to n >> h.
//
// Why folding peaks gives the RFC 6962 root: write n = 2^a1 + 2^a2 + ...
// with a1 > a2 > .... RFC 6962's split point for n is 2^a1, so the left
// child is the perfect subtree over the first 2^a1 leaves (the first
// "peak") and the right child is the RFC 6962 tree over the remaining
// n - 2^a1 leaves, which splits the same way at 2^a2. Unrolled, the root
// is combine(P1, combine(P2, ... combine(Pk-1, Pk))), where Pj is the
// peak for bit aj. The peak for bit h is the last digest of level h
// (size() >> h is odd exactly when bit h is set), so root() is a
// right-to-left fold of at most log2(n) cached peaks. The same argument
// applies to any leaf prefix, which is what prefix proofs use.
//
// Inclusion paths read their siblings from the levels too: every sibling
// on the path is a perfect subtree except at most one tail of the right
// spine, which folds at most log2(n) peaks. Truncation (a follower rolling
// back a conflicting suffix) keeps all levels exact.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/sha256.h"

namespace scv::crypto
{
  /// One step of an inclusion proof: the sibling digest and whether it sits
  /// to the left of the running hash.
  struct PathStep
  {
    Digest sibling;
    bool sibling_on_left;

    bool operator==(const PathStep&) const = default;
  };

  using Path = std::vector<PathStep>;

  class MerkleTree
  {
  public:
    MerkleTree() = default;

    /// Rebuilds a tree from previously extracted leaves (snapshot install:
    /// a joiner reconstructs the ledger tree without the entry bodies).
    explicit MerkleTree(const std::vector<Digest>& leaves);

    /// Appends a leaf digest; returns the (0-based) leaf index.
    size_t append(const Digest& leaf);

    /// All leaf digests appended so far, in order.
    [[nodiscard]] const std::vector<Digest>& leaves() const
    {
      return leaves_;
    }

    /// Root over all leaves appended so far. Root of the empty tree is the
    /// hash of the empty string, matching an empty ledger.
    [[nodiscard]] Digest root() const;

    [[nodiscard]] size_t size() const
    {
      return leaves_.size();
    }

    /// Inclusion proof for the leaf at `index` against the current root.
    [[nodiscard]] Path path(size_t index) const
    {
      return path(index, size());
    }

    /// Inclusion proof for the leaf at `index` against the root over the
    /// first `prefix` leaves (index < prefix <= size()).
    [[nodiscard]] Path path(size_t index, size_t prefix) const;

    /// Drops all leaves at and after `new_size`.
    void truncate(size_t new_size);

    /// Verifies an inclusion proof.
    static bool verify_path(
      const Digest& leaf, const Path& path, const Digest& expected_root);

    /// Hash of an interior node from its two children.
    static Digest combine(const Digest& left, const Digest& right);

  private:
    /// RFC 6962 root over leaves [begin, end), for a range whose `begin` is
    /// a multiple of the smallest power of two >= end - begin — true of
    /// every range the RFC 6962 recursion visits. Folds the range's peaks.
    [[nodiscard]] Digest range_root(size_t begin, size_t end) const;

    /// Level h of the cached tree (level 0 is the leaves).
    [[nodiscard]] const std::vector<Digest>& level(size_t h) const
    {
      return h == 0 ? leaves_ : upper_[h - 1];
    }

    std::vector<Digest> leaves_;
    /// upper_[h - 1] is level h >= 1; a level's vector exists once it has
    /// held a node.
    std::vector<std::vector<Digest>> upper_;
  };
}
