// Unit tests for the crypto substrate: SHA-256 against NIST/FIPS vectors,
// HMAC-SHA-256 against RFC 4231 vectors, Merkle tree structure, proofs,
// truncation, equivalence of the cached-level tree with the whole-tree
// RFC 6962 recursion at every size up to 1100, and the mock signer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/merkle_tree.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "util/hex.h"

using namespace scv;
using namespace scv::crypto;

namespace
{
  std::string hex_of(const Digest& d)
  {
    return digest_to_hex(d);
  }

  // Reference RFC 6962 tree: the whole-tree recursion, recomputed from the
  // leaves on every call. The cached-level tree must match it bit for bit.
  size_t split_point(size_t n)
  {
    size_t k = 1;
    while (k * 2 < n)
    {
      k *= 2;
    }
    return k;
  }

  Digest subtree_root(
    const std::vector<Digest>& leaves, size_t begin, size_t end)
  {
    if (end - begin == 1)
    {
      return leaves[begin];
    }
    const size_t k = split_point(end - begin);
    return MerkleTree::combine(
      subtree_root(leaves, begin, begin + k),
      subtree_root(leaves, begin + k, end));
  }

  Digest reference_root(const std::vector<Digest>& leaves, size_t size)
  {
    return size == 0 ? sha256("") : subtree_root(leaves, 0, size);
  }

  /// Every leaf's RFC 6962 audit path over leaves [begin, end), appended
  /// bottom-up to paths[i]; returns the subtree root. Shares subtree roots
  /// across leaves so all paths of one size cost O(n log n).
  Digest reference_paths(
    const std::vector<Digest>& leaves,
    size_t begin,
    size_t end,
    std::vector<Path>& paths)
  {
    if (end - begin == 1)
    {
      return leaves[begin];
    }
    const size_t k = split_point(end - begin);
    const Digest left = reference_paths(leaves, begin, begin + k, paths);
    const Digest right = reference_paths(leaves, begin + k, end, paths);
    for (size_t i = begin; i < begin + k; ++i)
    {
      paths[i].push_back({right, false});
    }
    for (size_t i = begin + k; i < end; ++i)
    {
      paths[i].push_back({left, true});
    }
    return MerkleTree::combine(left, right);
  }

  std::vector<Path> reference_all_paths(
    const std::vector<Digest>& leaves, size_t size)
  {
    std::vector<Path> paths(size);
    if (size > 0)
    {
      reference_paths(leaves, 0, size, paths);
    }
    return paths;
  }

  std::vector<Digest> numbered_leaves(const std::string& stem, size_t n)
  {
    std::vector<Digest> out;
    for (size_t i = 0; i < n; ++i)
    {
      out.push_back(sha256(stem + std::to_string(i)));
    }
    return out;
  }

  /// `tree`'s root and every inclusion path against its full size equal
  /// the reference over `leaves`.
  void expect_matches_reference(
    const MerkleTree& tree, const std::vector<Digest>& leaves)
  {
    ASSERT_EQ(tree.size(), leaves.size());
    ASSERT_EQ(tree.leaves(), leaves);
    ASSERT_EQ(tree.root(), reference_root(leaves, leaves.size()))
      << "size " << leaves.size();
    const auto paths = reference_all_paths(leaves, leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i)
    {
      ASSERT_EQ(tree.path(i), paths[i])
        << "size " << leaves.size() << " leaf " << i;
    }
  }

  constexpr size_t kEquivalenceMaxSize = 1100;
}

TEST(Sha256, EmptyString)
{
  EXPECT_EQ(
    hex_of(sha256("")),
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
  EXPECT_EQ(
    hex_of(sha256("abc")),
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
  EXPECT_EQ(
    hex_of(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i)
  {
    h.update(chunk);
  }
  EXPECT_EQ(
    hex_of(h.finalize()),
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(h.finalize(), sha256("hello world"));
}

TEST(Sha256, ExactBlockBoundary)
{
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  Sha256 h;
  h.update(block);
  h.update(block);
  EXPECT_EQ(h.finalize(), sha256(two_blocks));
}

TEST(Sha256, ResetReusable)
{
  Sha256 h;
  h.update("garbage");
  (void)h.finalize();
  h.reset();
  h.update("abc");
  EXPECT_EQ(
    hex_of(h.finalize()),
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1)
{
  const std::vector<uint8_t> key(20, 0x0b);
  EXPECT_EQ(
    hex_of(hmac_sha256(key, "Hi There")),
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2)
{
  const std::vector<uint8_t> key = {'J', 'e', 'f', 'e'};
  EXPECT_EQ(
    hex_of(hmac_sha256(key, "what do ya want for nothing?")),
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
TEST(Hmac, Rfc4231Case3)
{
  const std::vector<uint8_t> key(20, 0xaa);
  const std::vector<uint8_t> data(50, 0xdd);
  EXPECT_EQ(
    hex_of(hmac_sha256(key, data.data(), data.size())),
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, Rfc4231Case6LongKey)
{
  const std::vector<uint8_t> key(131, 0xaa);
  EXPECT_EQ(
    hex_of(hmac_sha256(
      key, "Test Using Larger Than Block-Size Key - Hash Key First")),
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Merkle, EmptyRootIsHashOfEmpty)
{
  MerkleTree t;
  EXPECT_EQ(t.root(), sha256(""));
  EXPECT_EQ(t.size(), 0u);
}

TEST(Merkle, SingleLeafRootIsLeaf)
{
  MerkleTree t;
  const Digest leaf = sha256("entry0");
  t.append(leaf);
  EXPECT_EQ(t.root(), leaf);
}

TEST(Merkle, TwoLeavesCombine)
{
  MerkleTree t;
  const Digest a = sha256("a");
  const Digest b = sha256("b");
  t.append(a);
  t.append(b);
  EXPECT_EQ(t.root(), MerkleTree::combine(a, b));
}

TEST(Merkle, RootChangesWithEveryAppend)
{
  MerkleTree t;
  std::set<std::string> roots;
  roots.insert(hex_of(t.root()));
  for (int i = 0; i < 20; ++i)
  {
    t.append(sha256("entry" + std::to_string(i)));
    EXPECT_TRUE(roots.insert(hex_of(t.root())).second)
      << "duplicate root at size " << t.size();
  }
}

TEST(Merkle, OrderMatters)
{
  MerkleTree t1;
  t1.append(sha256("a"));
  t1.append(sha256("b"));
  MerkleTree t2;
  t2.append(sha256("b"));
  t2.append(sha256("a"));
  EXPECT_NE(t1.root(), t2.root());
}

class MerklePathTest : public ::testing::TestWithParam<size_t>
{};

TEST_P(MerklePathTest, AllPathsVerify)
{
  const size_t n = GetParam();
  MerkleTree t;
  std::vector<Digest> leaves;
  for (size_t i = 0; i < n; ++i)
  {
    leaves.push_back(sha256("leaf" + std::to_string(i)));
    t.append(leaves.back());
  }
  const Digest root = t.root();
  for (size_t i = 0; i < n; ++i)
  {
    const auto path = t.path(i);
    EXPECT_TRUE(MerkleTree::verify_path(leaves[i], path, root))
      << "n=" << n << " i=" << i;
    // A wrong leaf must not verify.
    EXPECT_FALSE(MerkleTree::verify_path(sha256("evil"), path, root));
  }
}

INSTANTIATE_TEST_SUITE_P(
  Sizes, MerklePathTest, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33));

TEST(Merkle, TruncateRestoresEarlierRoot)
{
  MerkleTree t;
  std::vector<Digest> roots;
  for (int i = 0; i < 10; ++i)
  {
    roots.push_back(t.root());
    t.append(sha256("x" + std::to_string(i)));
  }
  for (size_t back = 10; back-- > 0;)
  {
    t.truncate(back);
    EXPECT_EQ(t.root(), roots[back]);
  }
}

TEST(Merkle, PathTamperDetected)
{
  MerkleTree t;
  for (int i = 0; i < 8; ++i)
  {
    t.append(sha256("l" + std::to_string(i)));
  }
  auto path = t.path(3);
  ASSERT_FALSE(path.empty());
  path[0].sibling_on_left = !path[0].sibling_on_left;
  EXPECT_FALSE(
    MerkleTree::verify_path(sha256("l3"), path, t.root()));
}

// ---------------------------------------------------------------------------
// Equivalence with the whole-tree RFC 6962 recursion
// ---------------------------------------------------------------------------

TEST(MerkleEquivalence, AppendMatchesReferenceAtEverySize)
{
  const auto leaves = numbered_leaves("a", kEquivalenceMaxSize);
  MerkleTree tree;
  std::vector<Digest> prefix;
  expect_matches_reference(tree, prefix);
  for (const auto& leaf : leaves)
  {
    tree.append(leaf);
    prefix.push_back(leaf);
    expect_matches_reference(tree, prefix);
  }
}

TEST(MerkleEquivalence, TruncateThenAppendMatchesReference)
{
  const auto leaves = numbered_leaves("a", kEquivalenceMaxSize);
  MerkleTree tree(leaves);
  for (size_t size = kEquivalenceMaxSize + 1; size-- > 0;)
  {
    tree.truncate(size);
    std::vector<Digest> prefix(leaves.begin(), leaves.begin() + size);
    expect_matches_reference(tree, prefix);

    // Regrow over a divergent suffix (a follower replacing a rolled-back
    // tail), then roll back again.
    const size_t regrown = std::min(size + 37, kEquivalenceMaxSize);
    for (size_t i = size; i < regrown; ++i)
    {
      const Digest leaf = sha256("b" + std::to_string(i));
      tree.append(leaf);
      prefix.push_back(leaf);
    }
    expect_matches_reference(tree, prefix);
    tree.truncate(size);
  }
}

TEST(MerkleEquivalence, LeavesConstructorMatchesReference)
{
  const auto leaves = numbered_leaves("c", kEquivalenceMaxSize);
  for (size_t size = 0; size <= kEquivalenceMaxSize; ++size)
  {
    const std::vector<Digest> prefix(leaves.begin(), leaves.begin() + size);
    expect_matches_reference(MerkleTree(prefix), prefix);
  }
}

TEST(MerkleEquivalence, PrefixProofsMatchReference)
{
  const auto leaves = numbered_leaves("d", kEquivalenceMaxSize);
  const MerkleTree tree(leaves);
  for (size_t prefix = 1; prefix <= kEquivalenceMaxSize; ++prefix)
  {
    const auto paths = reference_all_paths(leaves, prefix);
    const Digest root = reference_root(leaves, prefix);
    for (size_t i = 0; i < prefix; ++i)
    {
      const auto path = tree.path(i, prefix);
      ASSERT_EQ(path, paths[i]) << "prefix " << prefix << " leaf " << i;
      ASSERT_TRUE(MerkleTree::verify_path(leaves[i], path, root));
    }
  }
}

TEST(Signer, SignVerifyRoundTrip)
{
  Signer signer(3);
  const Digest d = sha256("payload");
  const Signature sig = signer.sign(d);
  EXPECT_TRUE(verify_signature(3, d, sig));
}

TEST(Signer, WrongNodeRejected)
{
  Signer signer(3);
  const Digest d = sha256("payload");
  const Signature sig = signer.sign(d);
  EXPECT_FALSE(verify_signature(4, d, sig));
}

TEST(Signer, WrongDigestRejected)
{
  Signer signer(3);
  const Signature sig = signer.sign(sha256("payload"));
  EXPECT_FALSE(verify_signature(3, sha256("other"), sig));
}

TEST(Signer, DeterministicPerNode)
{
  const Digest d = sha256("x");
  EXPECT_EQ(Signer(1).sign(d), Signer(1).sign(d));
  EXPECT_NE(Signer(1).sign(d), Signer(2).sign(d));
}
