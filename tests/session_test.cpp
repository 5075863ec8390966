// Tests for the Session serving machinery layered on the scripted
// client: request batching into signature transactions, per-session
// ordering, TxStatus-style commit acknowledgement (including the
// truncated-by-a-conflicting-leader INVALID edge), application
// transactions over the typed KV, and poll() against a scan-based
// reference through a failover that truncates the old leader's suffix.
#include <gtest/gtest.h>

#include <vector>

#include "driver/cluster.h"
#include "driver/session.h"
#include "kv/tx.h"

using namespace scv;
using namespace scv::driver;
using consensus::EntryType;
using consensus::Index;
using consensus::TxId;
using consensus::TxStatus;

namespace
{
  ClusterOptions three_nodes(uint64_t seed)
  {
    ClusterOptions o;
    o.initial_config = {1, 2, 3};
    o.initial_leader = 1;
    o.seed = seed;
    return o;
  }

  void settle(Cluster& c, int ticks = 80)
  {
    for (int i = 0; i < ticks; ++i)
    {
      c.tick_all();
      c.drain();
    }
  }

  /// The scan-based status rule poll() implements: rebuild the node's
  /// committed application prefix with a type_at scan from index 1, then
  /// compare it with the transaction's recorded response.
  TxStatus reference_poll(
    const Session& session, uint64_t seq, const consensus::RaftNode& node)
  {
    const ClientEvent* res = nullptr;
    for (const auto& ev : session.history())
    {
      if (
        ev.client_seq == seq &&
        (ev.kind == ClientEventKind::RwRes ||
         ev.kind == ClientEventKind::RoRes))
      {
        res = &ev;
      }
    }
    if (res == nullptr)
    {
      return TxStatus::Unknown;
    }
    const auto& ledger = node.ledger();
    std::vector<TxId> committed;
    for (Index i = 1; i <= node.commit_index() && i <= ledger.last_index();
         ++i)
    {
      if (ledger.type_at(i) == EntryType::Data)
      {
        committed.push_back(
          TxId{ledger.term_at(i), static_cast<Index>(committed.size() + 1)});
      }
    }
    const size_t at = res->txid.index;
    if (committed.size() < at)
    {
      return TxStatus::Pending;
    }
    bool matches = true;
    for (size_t k = 0; k < res->observed.size() && k < at; ++k)
    {
      matches = matches && committed[k] == res->observed[k];
    }
    if (res->kind == ClientEventKind::RwRes && matches)
    {
      matches = at >= 1 && committed[at - 1] == res->txid;
    }
    return matches ? TxStatus::Committed : TxStatus::Invalid;
  }

  /// Data entries in `node`'s ledger strictly inside (lo, hi).
  size_t data_entries_between(
    const consensus::RaftNode& node, Index lo, Index hi)
  {
    size_t count = 0;
    for (Index i = lo + 1; i < hi; ++i)
    {
      if (node.ledger().at(i).type == EntryType::Data)
      {
        ++count;
      }
    }
    return count;
  }
}

TEST(SessionBatching, BatchBoundariesAlignWithSignatureTransactions)
{
  Cluster c(three_nodes(401));
  Session session(c, SessionOptions{3});
  for (int i = 0; i < 7; ++i)
  {
    ASSERT_TRUE(session.submit_rw("v" + std::to_string(i)).has_value());
  }
  // 7 accepted transactions at batch size 3: signatures after #3 and #6,
  // one transaction left in the open batch.
  ASSERT_EQ(session.batch_signatures().size(), 2u);
  EXPECT_EQ(session.open_batch(), 1u);

  // Each signature closes exactly batch_size Data entries in the ledger.
  const auto& leader = c.node(1);
  Index prev = session.batch_signatures()[0].index;
  EXPECT_EQ(leader.ledger().at(prev).type, EntryType::Signature);
  // The first batch: 3 Data entries since the log position after the
  // bootstrap prefix. Signature entries carry no Data inside a batch.
  for (size_t b = 1; b < session.batch_signatures().size(); ++b)
  {
    const Index cur = session.batch_signatures()[b].index;
    EXPECT_EQ(leader.ledger().at(cur).type, EntryType::Signature);
    EXPECT_EQ(data_entries_between(leader, prev, cur), 3u);
    prev = cur;
  }

  // flush() closes the partial batch with a final signature.
  ASSERT_TRUE(session.flush().has_value());
  EXPECT_EQ(session.batch_signatures().size(), 3u);
  EXPECT_EQ(session.open_batch(), 0u);
  EXPECT_EQ(session.flush(), std::nullopt); // nothing left to close

  // The whole run commits: every transaction reaches COMMITTED.
  settle(c);
  for (uint64_t seq = 1; seq <= 7; ++seq)
  {
    EXPECT_EQ(session.commit_ack(seq), TxStatus::Committed);
    EXPECT_EQ(session.poll(seq), TxStatus::Committed);
  }
}

TEST(SessionBatching, PerSessionOrderingPreserved)
{
  Cluster c(three_nodes(403));
  Session session(c, SessionOptions{2});
  std::vector<uint64_t> seqs;
  for (int i = 0; i < 6; ++i)
  {
    const auto seq = session.submit_rw("p" + std::to_string(i));
    ASSERT_TRUE(seq.has_value());
    seqs.push_back(*seq);
  }
  // Application-level tx ids are assigned in submission order, and each
  // transaction observes exactly its session predecessors.
  for (size_t i = 0; i < seqs.size(); ++i)
  {
    const auto txid = session.txid_of(seqs[i]);
    ASSERT_TRUE(txid.has_value());
    EXPECT_EQ(txid->index, i + 1);
  }
  for (const auto& ev : session.history())
  {
    if (ev.kind == ClientEventKind::RwRes)
    {
      EXPECT_EQ(ev.observed.size(), ev.txid.index - 1);
    }
  }
  // Raw ledger ids are strictly increasing too (batching inserts
  // signatures but never reorders).
  Index prev_raw = 0;
  for (const uint64_t seq : seqs)
  {
    const auto raw = session.raw_txid_of(seq);
    ASSERT_TRUE(raw.has_value());
    EXPECT_GT(raw->index, prev_raw);
    prev_raw = raw->index;
  }
}

TEST(SessionAck, CommitAckLifecycle)
{
  Cluster c(three_nodes(405));
  Session session(c);
  const auto seq = session.submit_rw("x");
  ASSERT_TRUE(seq.has_value());
  EXPECT_EQ(session.commit_ack(*seq), TxStatus::Pending);
  session.sign();
  settle(c);
  EXPECT_EQ(session.commit_ack(*seq), TxStatus::Committed);

  // Read-only transactions and unknown sequence numbers have no raw id.
  const auto ro = session.submit_ro();
  ASSERT_TRUE(ro.has_value());
  EXPECT_EQ(session.commit_ack(*ro), TxStatus::Unknown);
  EXPECT_EQ(session.commit_ack(999), TxStatus::Unknown);
}

TEST(SessionAck, TruncatedTxReportsInvalidNotPending)
{
  Cluster c(three_nodes(407));
  Session session(c);
  // Anchor traffic so the cluster has a committed prefix.
  ASSERT_TRUE(session.submit_rw("base").has_value());
  session.sign();
  settle(c);

  // Isolate the leader; it still believes itself leader and accepts a
  // doomed transaction that will never replicate.
  c.isolate(1);
  const auto doomed = session.submit_rw("doomed", NodeId{1});
  ASSERT_TRUE(doomed.has_value());
  ASSERT_TRUE(session.raw_txid_of(*doomed).has_value());
  EXPECT_EQ(session.commit_ack(*doomed, NodeId{1}), TxStatus::Pending);

  // The majority side elects a new leader in a higher term and commits
  // new traffic past the doomed slot.
  c.node(2).force_timeout();
  settle(c, 120);
  const auto new_leader = c.find_leader();
  ASSERT_TRUE(new_leader.has_value());
  ASSERT_NE(*new_leader, 1u);

  // Heal: the old leader steps down and truncates its divergent suffix.
  c.heal();
  settle(c, 120);

  // The doomed transaction must be acknowledged INVALID everywhere — in
  // particular on nodes whose log never reached the doomed seqno again
  // (the beyond-log + later-view rule), not left PENDING/UNKNOWN forever.
  for (const NodeId id : c.node_ids())
  {
    EXPECT_EQ(session.commit_ack(*doomed, id), TxStatus::Invalid)
      << "node " << id;
  }
}

TEST(SessionApp, SubmitAppExecutesAndReplicatesWriteSet)
{
  Cluster c(three_nodes(409));
  Session session(c);
  const kv::Table table{"t"};

  const auto put = session.submit_app([&](kv::Tx& tx) {
    tx.put(table, "k", "v1");
    return true;
  });
  ASSERT_EQ(put.outcome, AppOutcome::Submitted);
  ASSERT_TRUE(put.seq.has_value());
  session.sign();
  settle(c);
  ASSERT_EQ(session.commit_ack(*put.seq), TxStatus::Committed);

  // Every replica applied the decoded write set, not an opaque payload.
  for (const NodeId id : c.node_ids())
  {
    EXPECT_EQ(c.store(id).get("t/k"), std::optional<std::string>("v1"));
  }
}

TEST(SessionApp, SpeculativeReadsSeeUncommittedBatchPredecessors)
{
  Cluster c(three_nodes(411));
  Session session(c, SessionOptions{8});
  const kv::Table table{"t"};

  ASSERT_EQ(
    session
      .submit_app([&](kv::Tx& tx) {
        tx.put(table, "counter", "1");
        return true;
      })
      .outcome,
    AppOutcome::Submitted);

  // Nothing is committed yet, but the next transaction in the open batch
  // must read its predecessor's write (leader executes speculatively).
  const auto bump = session.submit_app([&](kv::Tx& tx) {
    const auto cur = tx.get(table, "counter");
    if (!cur)
    {
      return false;
    }
    tx.put(table, "counter", std::to_string(std::stoll(*cur) + 1));
    return true;
  });
  ASSERT_EQ(bump.outcome, AppOutcome::Submitted);

  // A read transaction on the leader sees the full speculative chain.
  auto read = session.begin_read();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->get(table, "counter"), std::optional<std::string>("2"));

  session.flush();
  settle(c);
  for (const NodeId id : c.node_ids())
  {
    EXPECT_EQ(c.store(id).get("t/counter"), std::optional<std::string>("2"));
  }
}

TEST(SessionApp, AbortedBodyReplicatesNothing)
{
  Cluster c(three_nodes(413));
  Session session(c);
  const kv::Table table{"t"};
  const size_t history_before = session.history().size();
  const Index ledger_before = c.node(1).ledger().last_index();

  const auto aborted = session.submit_app([&](kv::Tx& tx) {
    tx.put(table, "x", "ignored");
    return false; // application-level refusal
  });
  EXPECT_EQ(aborted.outcome, AppOutcome::Aborted);
  EXPECT_EQ(aborted.seq, std::nullopt);
  EXPECT_EQ(session.history().size(), history_before);
  EXPECT_EQ(c.node(1).ledger().last_index(), ledger_before);
}

TEST(SessionPoll, MatchesScanReferenceThroughTruncatingFailover)
{
  ClusterOptions o = three_nodes(415);
  o.node_template.check_quorum_interval = 0;
  Cluster c(o);
  Session session(c, SessionOptions{2});
  for (int i = 0; i < 4; ++i)
  {
    ASSERT_TRUE(session.submit_rw("base" + std::to_string(i)).has_value());
  }
  ASSERT_TRUE(session.submit_ro().has_value());
  settle(c, 40);

  // The old leader, cut off, keeps answering: its suffix is doomed.
  c.partition({1}, {2, 3});
  // A read follows each doomed write. The first read's only doomed
  // observation is its last one, so a poll that skips any observed
  // position disagrees with the reference.
  std::vector<uint64_t> doomed;
  for (int i = 0; i < 3; ++i)
  {
    const auto seq =
      session.submit_rw("doomed" + std::to_string(i), NodeId{1});
    ASSERT_TRUE(seq.has_value());
    doomed.push_back(*seq);
    const auto ro = session.submit_ro(NodeId{1});
    ASSERT_TRUE(ro.has_value());
    doomed.push_back(*ro);
  }
  const Index doomed_last = c.node(1).ledger().last_index();
  const auto doomed_term = c.node(1).ledger().term_at(doomed_last);

  // Every answered transaction, polled on every node at every tick, must
  // get the scan-based verdict.
  size_t committed = 0;
  size_t invalid = 0;
  for (int tick = 0; tick < 400; ++tick)
  {
    c.tick_all();
    c.drain();
    if (tick == 200)
    {
      c.heal();
    }
    if (tick % 25 == 0)
    {
      (void)session.submit_rw("load" + std::to_string(tick));
      (void)session.submit_ro();
    }
    if (tick % 50 == 0)
    {
      (void)session.sign();
    }
    for (const auto& p : session.history())
    {
      if (
        p.kind != ClientEventKind::RwRes && p.kind != ClientEventKind::RoRes)
      {
        continue;
      }
      for (const NodeId id : c.node_ids())
      {
        const TxStatus expected =
          reference_poll(session, p.client_seq, c.node(id));
        const TxStatus got = session.poll(p.client_seq, id);
        ASSERT_EQ(got, expected)
          << "seq " << p.client_seq << " node " << id << " tick " << tick;
        committed += got == TxStatus::Committed ? 1 : 0;
        invalid += got == TxStatus::Invalid ? 1 : 0;
      }
    }
  }

  // The failover really truncated the old leader's suffix, and the run
  // exercised both terminal verdicts.
  EXPECT_NE(c.node(1).ledger().term_at(doomed_last), doomed_term);
  for (const uint64_t seq : doomed)
  {
    EXPECT_EQ(session.poll(seq, NodeId{1}), TxStatus::Invalid);
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(invalid, 0u);
}
