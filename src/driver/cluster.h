// Deterministic multi-node scenario driver (§6.1).
//
// Mirrors the paper's consensus scenario driver: it serializes execution
// deterministically across nodes, replaces wall clocks with a single global
// clock, owns the simulated network for fault injection (partitions,
// delays, reordering, drops), applies committed entries to each node's KV
// store, collects the implementation trace, and exposes observability for
// invariant checking at designated execution steps.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consensus/raft_node.h"
#include "kv/store.h"
#include "net/sim_network.h"
#include "trace/event.h"
#include "util/rng.h"

namespace scv::driver
{
  using consensus::Index;
  using consensus::NodeId;
  using consensus::Term;
  using consensus::TxId;

  /// Addresses a submit: a specific node, or (default) whichever node the
  /// cluster currently believes is leader.
  struct Target
  {
    NodeId node = 0; // 0 = current leader

    Target() = default;
    Target(NodeId n) : node(n) {} // NOLINT(google-explicit-constructor)
    [[nodiscard]] bool is_leader() const
    {
      return node == 0;
    }
  };

  /// Uniform parameter object for membership operations: which node, and
  /// optionally the snapshot it joins or recovers from.
  struct JoinSpec
  {
    NodeId id = 0;
    /// When set: add_node installs it instead of replaying from bootstrap
    /// (join-from-snapshot); restart recovers from it alone, discarding
    /// the persisted ledger (disaster recovery).
    std::optional<consensus::Snapshot> snapshot;

    JoinSpec(NodeId id) : id(id) {} // NOLINT(google-explicit-constructor)
    JoinSpec(NodeId id, consensus::Snapshot snap) :
      id(id),
      snapshot(std::move(snap))
    {}
  };

  struct ClusterOptions
  {
    std::vector<NodeId> initial_config = {1, 2, 3};
    NodeId initial_leader = 1;
    /// Template for per-node configuration; id and rng_seed are overridden
    /// per node.
    consensus::NodeConfig node_template;
    uint64_t min_latency = 0;
    uint64_t max_latency = 0;
    uint64_t seed = 1;
    /// When true, every message is serialized to its canonical wire bytes
    /// on send and deserialized on the way into the network, exercising
    /// the codec end-to-end in every scenario.
    bool wire_serialization = false;
  };

  class Cluster
  {
  public:
    explicit Cluster(ClusterOptions options);

    // --- topology --------------------------------------------------------

    /// Creates a node that is not yet part of any configuration; it starts
    /// as a follower and catches up once a reconfiguration adds it. With
    /// spec.snapshot set, the node boots from the snapshot (holed ledger,
    /// KV image) and only needs the suffix via AppendEntries; otherwise it
    /// replays from the service's bootstrap state.
    void add_node(const JoinSpec& spec);

    /// Convenience join-from-snapshot: snapshots the current leader
    /// (compacting its ledger so it actually serves InstallSnapshot to
    /// stragglers) and adds `id` from that snapshot. Requires a leader.
    void add_node_from_snapshot(NodeId id);

    /// Fail-stop crash: the node stops ticking and receiving; in-flight
    /// messages to it are dropped on delivery.
    void crash(NodeId id);

    /// Crash-restart recovery: tears the crashed node down and rebuilds it
    /// from its persisted state (ledger, term, vote, commit watermark —
    /// see consensus::PersistedState). The KV store is reconstructed by
    /// replaying the committed ledger prefix; the node rejoins as a
    /// follower and catches up through AppendEntries. The restarted
    /// incarnation gets a distinct timer-RNG stream so repeated
    /// crash-restart cycles stay deterministic but not identical.
    /// With spec.snapshot set, the persisted ledger is considered lost and
    /// the node recovers from the snapshot alone (disaster recovery).
    void restart(const JoinSpec& spec);

    [[nodiscard]] bool crashed(NodeId id) const
    {
      return crashed_.contains(id);
    }

    [[nodiscard]] bool has_node(NodeId id) const
    {
      return nodes_.contains(id);
    }

    consensus::RaftNode& node(NodeId id);
    [[nodiscard]] const consensus::RaftNode& node(NodeId id) const;

    kv::Store& store(NodeId id);

    [[nodiscard]] std::vector<NodeId> node_ids() const;

    // --- time and scheduling ----------------------------------------------

    [[nodiscard]] uint64_t now() const
    {
      return clock_;
    }

    /// Ticks one node and flushes its outbox into the network.
    void tick(NodeId id);

    /// Advances the global clock by one and ticks every live node.
    void tick_all();

    /// Delivers one randomly chosen deliverable message; returns whether a
    /// message was delivered.
    bool deliver_one();

    /// Delivers the oldest in-flight message on a directed link.
    bool deliver_on_link(NodeId from, NodeId to);

    /// Delivers messages until the network is quiet or `bound` deliveries
    /// have happened; returns number delivered.
    size_t drain(size_t bound = 10000);

    /// Randomized end-to-end scheduler: per iteration, ticks all nodes and
    /// delivers a random number of messages. Runs `ticks` iterations.
    void run(uint64_t ticks);

    // --- faults -----------------------------------------------------------

    net::SimNetwork<consensus::Message>& network()
    {
      return network_;
    }

    void partition(
      const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b);

    void isolate(NodeId id);

    void heal();

    // --- client operations --------------------------------------------------

    [[nodiscard]] std::optional<NodeId> find_leader() const;

    /// Submits a client transaction. The target defaults to whichever
    /// node currently believes itself leader; pass an explicit node to
    /// exercise stale-leader behavior. Returns nullopt when the target is
    /// absent, crashed, or refuses (does not believe itself leader).
    std::optional<TxId> submit(std::string data);
    std::optional<TxId> submit(Target target, std::string data);

    /// Asks the current leader to emit a signature transaction.
    std::optional<TxId> sign();

    /// Proposes a configuration change via the current leader.
    std::optional<TxId> reconfigure(std::vector<NodeId> new_nodes);

    // --- snapshots ---------------------------------------------------------

    /// Builds a complete snapshot (consensus state + KV image) covering
    /// the node's current commit index. Does not compact anything.
    [[nodiscard]] consensus::Snapshot take_snapshot(NodeId id);

    /// Snapshots the node and compacts its ledger to the covering index:
    /// entry bodies at and below it are dropped, and lagging followers are
    /// subsequently served InstallSnapshot instead of AppendEntries.
    /// Returns the adopted snapshot.
    consensus::Snapshot compact(NodeId id);

    /// Convenience: submit + sign + run until the transaction commits on
    /// the leader or `max_ticks` elapse. Returns the tx status at the end.
    consensus::TxStatus submit_and_commit(
      std::string data, uint64_t max_ticks = 200);

    // --- observability -----------------------------------------------------

    [[nodiscard]] const std::vector<trace::TraceEvent>& trace() const
    {
      return trace_;
    }

    [[nodiscard]] size_t trace_size() const
    {
      return trace_.size();
    }

    /// Highest commit index across live nodes.
    [[nodiscard]] Index max_commit() const;

    /// Leaders observed per term (from trace events), for election-safety
    /// checking.
    [[nodiscard]] const std::map<Term, std::set<NodeId>>& leaders_by_term()
      const
    {
      return leaders_by_term_;
    }

    /// Total bytes pushed through the wire codec (wire_serialization only).
    [[nodiscard]] uint64_t wire_bytes() const
    {
      return wire_bytes_;
    }

  private:
    struct NodeSlot
    {
      std::unique_ptr<consensus::RaftNode> node;
      std::unique_ptr<kv::Store> store;
    };

    void wire_node(NodeId id, consensus::RaftNode& n, kv::Store& store);
    [[nodiscard]] consensus::NodeConfig node_config_for(
      NodeId id, uint64_t incarnation) const;
    void flush_outbox(NodeId id);
    void deliver_envelope(
      const net::SimNetwork<consensus::Message>::Envelope& env);

    ClusterOptions options_;
    Rng rng_;
    uint64_t clock_ = 0;
    net::SimNetwork<consensus::Message> network_;
    std::map<NodeId, NodeSlot> nodes_;
    std::set<NodeId> crashed_;
    /// Restart count per node; seeds each incarnation's private RNG.
    std::map<NodeId, uint64_t> incarnation_;
    std::vector<trace::TraceEvent> trace_;
    std::map<Term, std::set<NodeId>> leaders_by_term_;
    uint64_t wire_bytes_ = 0;
  };
}
