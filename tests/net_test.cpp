// Unit tests for the simulated network: multiset semantics, unordered
// delivery, partitions (including asymmetric ones), loss, duplication,
// latency, and determinism under a fixed seed.
#include <gtest/gtest.h>

#include <string>

#include "net/sim_network.h"

using namespace scv;
using namespace scv::net;

using Net = SimNetwork<std::string>;

TEST(LinkFilter, BlockIsDirectional)
{
  LinkFilter f;
  f.block(1, 2);
  EXPECT_TRUE(f.blocked(1, 2));
  EXPECT_FALSE(f.blocked(2, 1));
}

TEST(LinkFilter, PartitionCutsBothDirections)
{
  LinkFilter f;
  f.partition({1, 2}, {3});
  EXPECT_TRUE(f.blocked(1, 3));
  EXPECT_TRUE(f.blocked(3, 1));
  EXPECT_TRUE(f.blocked(2, 3));
  EXPECT_FALSE(f.blocked(1, 2));
}

TEST(LinkFilter, IsolateAndHeal)
{
  LinkFilter f;
  f.isolate(2, {1, 2, 3});
  EXPECT_TRUE(f.blocked(2, 1));
  EXPECT_TRUE(f.blocked(3, 2));
  EXPECT_FALSE(f.blocked(1, 3));
  f.heal();
  EXPECT_FALSE(f.blocked(2, 1));
}

TEST(SimNetwork, SendAndDeliver)
{
  Net net;
  Rng rng(1);
  ASSERT_TRUE(net.send(1, 2, "hello", 0, rng).has_value());
  EXPECT_EQ(net.in_flight(), 1u);
  const auto env = net.deliver_one(0, rng);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->payload, "hello");
  EXPECT_EQ(env->from, 1u);
  EXPECT_EQ(env->to, 2u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, DeliverOnEmptyReturnsNothing)
{
  Net net;
  Rng rng(1);
  EXPECT_FALSE(net.deliver_one(0, rng).has_value());
}

TEST(SimNetwork, PartitionDropsAtSend)
{
  Net net;
  Rng rng(1);
  net.links().block(1, 2);
  EXPECT_FALSE(net.send(1, 2, "x", 0, rng).has_value());
  EXPECT_EQ(net.stats().dropped_partition, 1u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, PartitionSeversInFlight)
{
  Net net;
  Rng rng(1);
  ASSERT_TRUE(net.send(1, 2, "x", 0, rng).has_value());
  net.links().block(1, 2);
  EXPECT_FALSE(net.deliver_one(0, rng).has_value());
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
}

TEST(SimNetwork, AsymmetricPartition)
{
  Net net;
  Rng rng(1);
  net.links().block(1, 2); // 1->2 cut, 2->1 open
  EXPECT_FALSE(net.send(1, 2, "a", 0, rng).has_value());
  ASSERT_TRUE(net.send(2, 1, "b", 0, rng).has_value());
  const auto env = net.deliver_one(0, rng);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->payload, "b");
}

TEST(SimNetwork, LossIsProbabilisticAndCounted)
{
  Net net;
  Rng rng(3);
  net.links().set_default_faults({0.5, 0.0});
  int sent_ok = 0;
  for (int i = 0; i < 1000; ++i)
  {
    if (net.send(1, 2, "m", 0, rng).has_value())
    {
      ++sent_ok;
    }
  }
  EXPECT_GT(sent_ok, 350);
  EXPECT_LT(sent_ok, 650);
  EXPECT_EQ(net.stats().dropped_loss, 1000u - sent_ok);
}

TEST(SimNetwork, DuplicationCreatesExtraCopy)
{
  Net net;
  Rng rng(3);
  net.links().set_faults(1, 2, {0.0, 1.0});
  ASSERT_TRUE(net.send(1, 2, "m", 0, rng).has_value());
  EXPECT_EQ(net.in_flight(), 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);
}

TEST(SimNetwork, LatencyDelaysDelivery)
{
  Net net(5, 5);
  Rng rng(1);
  ASSERT_TRUE(net.send(1, 2, "m", 10, rng).has_value());
  EXPECT_FALSE(net.deliver_one(14, rng).has_value());
  EXPECT_TRUE(net.deliver_one(15, rng).has_value());
}

TEST(SimNetwork, UnorderedCanReorder)
{
  // With some seed, delivery order differs from send order.
  bool reordered = false;
  for (uint64_t seed = 1; seed < 20 && !reordered; ++seed)
  {
    Net net;
    Rng rng(seed);
    for (int i = 0; i < 5; ++i)
    {
      ASSERT_TRUE(net.send(1, 2, std::to_string(i), 0, rng).has_value());
    }
    std::string order;
    while (const auto env = net.deliver_one(0, rng))
    {
      order += env->payload;
    }
    reordered = order != "01234";
  }
  EXPECT_TRUE(reordered);
}

TEST(SimNetwork, DeterministicUnderSeed)
{
  const auto run = [](uint64_t seed) {
    Net net;
    Rng rng(seed);
    net.links().set_default_faults({0.2, 0.2});
    std::string result;
    for (int i = 0; i < 50; ++i)
    {
      net.send(1, 2, std::to_string(i), 0, rng);
    }
    while (const auto env = net.deliver_one(0, rng))
    {
      result += env->payload + ",";
    }
    return result;
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(124));
}

TEST(SimNetwork, DropIdAndDropLink)
{
  Net net;
  Rng rng(1);
  const auto id1 = net.send(1, 2, "a", 0, rng);
  ASSERT_TRUE(id1.has_value());
  ASSERT_TRUE(net.send(1, 2, "b", 0, rng).has_value());
  ASSERT_TRUE(net.send(2, 1, "c", 0, rng).has_value());

  EXPECT_TRUE(net.drop_id(*id1));
  EXPECT_FALSE(net.drop_id(*id1)); // already gone
  EXPECT_EQ(net.drop_link(1, 2), 1u);
  EXPECT_EQ(net.in_flight(), 1u);
  EXPECT_EQ(net.stats().dropped_explicit, 2u);
}

TEST(SimNetwork, DeliverNextOnLink)
{
  Net net;
  Rng rng(1);
  ASSERT_TRUE(net.send(1, 2, "a", 0, rng).has_value());
  ASSERT_TRUE(net.send(1, 2, "b", 0, rng).has_value());
  const auto env = net.deliver_next_on_link(1, 2);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->payload, "a");
  EXPECT_FALSE(net.deliver_next_on_link(2, 1).has_value());
}

TEST(SimNetwork, EnvelopeIdsAreUnique)
{
  Net net;
  Rng rng(1);
  std::set<uint64_t> ids;
  for (int i = 0; i < 100; ++i)
  {
    const auto id = net.send(1, 2, "m", 0, rng);
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(ids.insert(*id).second);
  }
}
