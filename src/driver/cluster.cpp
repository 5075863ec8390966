#include "driver/cluster.h"

#include <algorithm>

#include "kv/tx.h"
#include "util/check.h"

namespace scv::driver
{
  namespace
  {
    // The driver applies committed entries to the node's KV store; the
    // governance map mirrors configuration and retirement transactions.
    // Shared between the live commit callback and restart-time replay of
    // the committed ledger prefix, so both produce identical stores.
    void apply_committed_entry(
      kv::Store& store, Index idx, const consensus::Entry& entry)
    {
      kv::WriteSet ws;
      switch (entry.type)
      {
        case consensus::EntryType::Data:
          // Application transactions carrying an encoded kv write set
          // apply as the leader-executed writes; legacy opaque payloads
          // keep the positional app.<idx> cell.
          if (auto decoded = kv::decode_payload(entry.data))
          {
            ws = std::move(*decoded);
          }
          else
          {
            ws.writes.push_back({"app." + std::to_string(idx), entry.data});
          }
          break;
        case consensus::EntryType::Reconfiguration:
        {
          std::string nodes;
          for (const NodeId n2 : entry.config)
          {
            if (!nodes.empty())
            {
              nodes += ',';
            }
            nodes += std::to_string(n2);
          }
          ws.writes.push_back({"ccf.gov.nodes.info", nodes});
          break;
        }
        case consensus::EntryType::Retirement:
          ws.writes.push_back(
            {"ccf.gov.nodes.retired." + std::to_string(entry.retiring_node),
             "true"});
          break;
        case consensus::EntryType::Signature:
          ws.writes.push_back(
            {"ccf.internal.signatures." + std::to_string(idx),
             crypto::digest_to_hex(entry.root)});
          break;
      }
      const kv::Version v = store.apply(ws);
      store.commit(v);
    }
  }

  Cluster::Cluster(ClusterOptions options) :
    options_(std::move(options)),
    rng_(options_.seed),
    network_(options_.min_latency, options_.max_latency)
  {
    for (const NodeId id : options_.initial_config)
    {
      NodeSlot slot;
      slot.node = std::make_unique<consensus::RaftNode>(
        node_config_for(id, 0), options_.initial_config,
        options_.initial_leader);
      slot.store = std::make_unique<kv::Store>();
      wire_node(id, *slot.node, *slot.store);
      // The bootstrap prefix commits inside the RaftNode constructor,
      // before the commit callback exists; apply it here so store
      // versions track ledger indices from version 1 (exactly what
      // restart's replay produces — a snapshot image taken later must
      // cover the full committed prefix).
      for (Index i = 1; i <= slot.node->commit_index(); ++i)
      {
        apply_committed_entry(*slot.store, i, slot.node->ledger().at(i));
      }
      nodes_.emplace(id, std::move(slot));
    }
  }

  consensus::NodeConfig Cluster::node_config_for(
    NodeId id, uint64_t incarnation) const
  {
    consensus::NodeConfig cfg = options_.node_template;
    cfg.id = id;
    cfg.rng_seed = options_.seed ^ (id * 0x2545f4914f6cdd1dULL) ^
      (incarnation * 0x9e3779b97f4a7c15ULL);
    return cfg;
  }

  void Cluster::wire_node(NodeId id, consensus::RaftNode& n, kv::Store& store)
  {
    n.set_clock([this] { return clock_; });
    n.set_trace_sink([this](const trace::TraceEvent& e) {
      trace_.push_back(e);
      if (e.kind == trace::EventKind::BecomeLeader)
      {
        leaders_by_term_[e.term].insert(e.node);
      }
    });
    n.set_commit_callback(
      [&store](Index idx, const consensus::Entry& entry) {
        apply_committed_entry(store, idx, entry);
      });
    n.set_snapshot_installed_callback(
      [&store](const consensus::Snapshot& snap) {
        // The per-entry commit callback never fires for the covered
        // prefix: the whole state machine swaps to the snapshot's image.
        store.install_image(snap.kv_image, snap.index);
      });
    (void)id;
  }

  void Cluster::add_node(const JoinSpec& spec)
  {
    const NodeId id = spec.id;
    SCV_CHECK_MSG(!nodes_.contains(id), "node already exists");
    NodeSlot slot;
    if (spec.snapshot)
    {
      // Join-from-snapshot (§2.1 disaster recovery/catch-up): the node
      // boots with a holed ledger and the snapshot's KV image, needing
      // only the suffix via AppendEntries.
      const consensus::Snapshot& snap = *spec.snapshot;
      consensus::PersistedState ps;
      ps.ledger =
        consensus::Ledger::from_snapshot(snap.index, snap.meta, snap.leaves);
      ps.current_term = snap.term;
      ps.commit_index = snap.index;
      ps.snapshot = snap;
      slot.node = std::make_unique<consensus::RaftNode>(
        node_config_for(id, 0), std::move(ps));
      slot.store = std::make_unique<kv::Store>(
        kv::Store::from_image(snap.kv_image, snap.index));
    }
    else
    {
      // A joining node starts from the service's initial state; it
      // catches up through AppendEntries.
      slot.node = std::make_unique<consensus::RaftNode>(
        node_config_for(id, 0), options_.initial_config,
        options_.initial_leader);
      slot.store = std::make_unique<kv::Store>();
    }
    wire_node(id, *slot.node, *slot.store);
    if (spec.snapshot)
    {
      slot.node->announce_recovery(consensus::Role::Follower);
    }
    else
    {
      // As in the constructor: the bootstrap prefix committed before the
      // callback was wired.
      for (Index i = 1; i <= slot.node->commit_index(); ++i)
      {
        apply_committed_entry(*slot.store, i, slot.node->ledger().at(i));
      }
    }
    nodes_.emplace(id, std::move(slot));
  }

  void Cluster::add_node_from_snapshot(NodeId id)
  {
    const auto leader = find_leader();
    SCV_CHECK_MSG(
      leader.has_value(), "join-from-snapshot needs a reachable leader");
    add_node(JoinSpec(id, compact(*leader)));
  }

  void Cluster::crash(NodeId id)
  {
    SCV_CHECK(nodes_.contains(id));
    crashed_.insert(id);
  }

  void Cluster::restart(const JoinSpec& spec)
  {
    const NodeId id = spec.id;
    SCV_CHECK_MSG(crashed_.contains(id), "restart needs a crashed node");
    NodeSlot& slot = nodes_.at(id);
    const consensus::Role pre_crash_role = slot.node->role();

    consensus::PersistedState persisted;
    if (spec.snapshot)
    {
      // Disaster recovery: the persisted ledger is considered lost; the
      // node rebuilds from the snapshot alone and refetches the suffix.
      const consensus::Snapshot& snap = *spec.snapshot;
      persisted.ledger =
        consensus::Ledger::from_snapshot(snap.index, snap.meta, snap.leaves);
      persisted.current_term = std::max(snap.term, slot.node->current_term());
      persisted.commit_index = snap.index;
      persisted.snapshot = snap;
    }
    else
    {
      persisted = slot.node->persisted_state();
    }

    slot.node = std::make_unique<consensus::RaftNode>(
      node_config_for(id, ++incarnation_[id]), std::move(persisted));

    if (spec.snapshot)
    {
      slot.store = std::make_unique<kv::Store>(kv::Store::from_image(
        spec.snapshot->kv_image, spec.snapshot->index));
    }
    else
    {
      // Replay the committed suffix above any compaction hole onto the
      // snapshot's image (or an empty store) — the same application the
      // live commit callback performs, so a recovered store is
      // indistinguishable from one that never crashed.
      const auto& snap = slot.node->latest_snapshot();
      slot.store = std::make_unique<kv::Store>(
        snap ? kv::Store::from_image(snap->kv_image, snap->index) :
               kv::Store());
      for (Index i = slot.node->ledger().start_index() + 1;
           i <= slot.node->commit_index();
           ++i)
      {
        apply_committed_entry(*slot.store, i, slot.node->ledger().at(i));
      }
    }
    wire_node(id, *slot.node, *slot.store);
    slot.node->announce_recovery(pre_crash_role);
    crashed_.erase(id);
  }

  consensus::RaftNode& Cluster::node(NodeId id)
  {
    const auto it = nodes_.find(id);
    SCV_CHECK_MSG(it != nodes_.end(), "unknown node " << id);
    return *it->second.node;
  }

  const consensus::RaftNode& Cluster::node(NodeId id) const
  {
    const auto it = nodes_.find(id);
    SCV_CHECK_MSG(it != nodes_.end(), "unknown node " << id);
    return *it->second.node;
  }

  kv::Store& Cluster::store(NodeId id)
  {
    const auto it = nodes_.find(id);
    SCV_CHECK(it != nodes_.end());
    return *it->second.store;
  }

  std::vector<NodeId> Cluster::node_ids() const
  {
    std::vector<NodeId> out;
    out.reserve(nodes_.size());
    for (const auto& [id, slot] : nodes_)
    {
      out.push_back(id);
    }
    return out;
  }

  void Cluster::flush_outbox(NodeId id)
  {
    auto& n = node(id);
    for (auto& out : n.take_outbox())
    {
      if (options_.wire_serialization)
      {
        // Round-trip through the canonical byte encoding, as a real
        // transport would.
        const auto bytes = consensus::serialize(out.msg);
        wire_bytes_ += bytes.size();
        auto decoded = consensus::deserialize(bytes);
        SCV_CHECK_MSG(
          decoded.has_value(),
          "wire codec failed to round-trip a "
            << consensus::message_type_name(out.msg));
        network_.send(id, out.to, std::move(*decoded), clock_, rng_);
      }
      else
      {
        network_.send(id, out.to, std::move(out.msg), clock_, rng_);
      }
    }
  }

  void Cluster::tick(NodeId id)
  {
    if (crashed_.contains(id))
    {
      return;
    }
    node(id).tick();
    flush_outbox(id);
  }

  void Cluster::tick_all()
  {
    clock_ += 1;
    for (const auto& [id, slot] : nodes_)
    {
      tick(id);
    }
  }

  void Cluster::deliver_envelope(
    const net::SimNetwork<consensus::Message>::Envelope& env)
  {
    if (crashed_.contains(env.to) || !nodes_.contains(env.to))
    {
      return;
    }
    node(env.to).receive(env.from, env.payload);
    flush_outbox(env.to);
  }

  bool Cluster::deliver_one()
  {
    auto env = network_.deliver_one(clock_, rng_);
    if (!env)
    {
      return false;
    }
    deliver_envelope(*env);
    return true;
  }

  bool Cluster::deliver_on_link(NodeId from, NodeId to)
  {
    auto env = network_.deliver_next_on_link(from, to);
    if (!env)
    {
      return false;
    }
    deliver_envelope(*env);
    return true;
  }

  size_t Cluster::drain(size_t bound)
  {
    size_t delivered = 0;
    while (delivered < bound && deliver_one())
    {
      ++delivered;
    }
    return delivered;
  }

  void Cluster::run(uint64_t ticks)
  {
    for (uint64_t i = 0; i < ticks; ++i)
    {
      tick_all();
      // Deliver a random handful of messages; leaving some in flight
      // exercises reordering and delay.
      const uint64_t deliveries = rng_.below(4);
      for (uint64_t d = 0; d < deliveries; ++d)
      {
        if (!deliver_one())
        {
          break;
        }
      }
    }
  }

  void Cluster::partition(
    const std::vector<NodeId>& group_a, const std::vector<NodeId>& group_b)
  {
    network_.links().partition(group_a, group_b);
  }

  void Cluster::isolate(NodeId id)
  {
    network_.links().isolate(id, node_ids());
  }

  void Cluster::heal()
  {
    network_.links().heal();
  }

  std::optional<NodeId> Cluster::find_leader() const
  {
    std::optional<NodeId> best;
    Term best_term = 0;
    for (const auto& [id, slot] : nodes_)
    {
      if (crashed_.contains(id))
      {
        continue;
      }
      if (
        slot.node->role() == consensus::Role::Leader &&
        slot.node->current_term() > best_term)
      {
        best = id;
        best_term = slot.node->current_term();
      }
    }
    return best;
  }

  std::optional<TxId> Cluster::submit(std::string data)
  {
    return submit(Target{}, std::move(data));
  }

  std::optional<TxId> Cluster::submit(Target target, std::string data)
  {
    NodeId id = target.node;
    if (target.is_leader())
    {
      const auto leader = find_leader();
      if (!leader)
      {
        return std::nullopt;
      }
      id = *leader;
    }
    if (!nodes_.contains(id) || crashed_.contains(id))
    {
      return std::nullopt;
    }
    const auto txid = node(id).client_request(std::move(data));
    flush_outbox(id);
    return txid;
  }

  std::optional<TxId> Cluster::sign()
  {
    const auto leader = find_leader();
    if (!leader)
    {
      return std::nullopt;
    }
    const auto txid = node(*leader).emit_signature();
    flush_outbox(*leader);
    return txid;
  }

  std::optional<TxId> Cluster::reconfigure(std::vector<NodeId> new_nodes)
  {
    const auto leader = find_leader();
    if (!leader)
    {
      return std::nullopt;
    }
    const auto txid =
      node(*leader).propose_reconfiguration(std::move(new_nodes));
    flush_outbox(*leader);
    return txid;
  }

  consensus::TxStatus Cluster::submit_and_commit(
    std::string data, uint64_t max_ticks)
  {
    const auto txid = submit(std::move(data));
    if (!txid)
    {
      return consensus::TxStatus::Unknown;
    }
    sign();
    for (uint64_t i = 0; i < max_ticks; ++i)
    {
      tick_all();
      drain();
      const auto leader = find_leader();
      if (leader)
      {
        const auto s = node(*leader).status(*txid);
        if (
          s == consensus::TxStatus::Committed ||
          s == consensus::TxStatus::Invalid)
        {
          return s;
        }
      }
    }
    return consensus::TxStatus::Pending;
  }

  consensus::Snapshot Cluster::take_snapshot(NodeId id)
  {
    SCV_CHECK(nodes_.contains(id));
    NodeSlot& slot = nodes_.at(id);
    consensus::Snapshot snap = slot.node->make_snapshot();
    // The store's commit version tracks the node's commit index, so the
    // image is exactly the KV state at the covering index.
    SCV_CHECK(slot.store->commit_version() == snap.index);
    snap.kv_image = slot.store->serialize_image();
    snap.kv_digest = crypto::sha256(snap.kv_image);
    return snap;
  }

  consensus::Snapshot Cluster::compact(NodeId id)
  {
    consensus::Snapshot snap = take_snapshot(id);
    nodes_.at(id).node->compact(snap);
    return snap;
  }

  Index Cluster::max_commit() const
  {
    Index out = 0;
    for (const auto& [id, slot] : nodes_)
    {
      out = std::max(out, slot.node->commit_index());
    }
    return out;
  }
}
