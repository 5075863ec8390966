#include "driver/session.h"

#include <algorithm>
#include <utility>

namespace scv::driver
{
  using consensus::EntryType;
  using consensus::Index;
  using consensus::Role;
  using consensus::TxId;
  using consensus::TxStatus;

  const char* to_string(ClientEventKind kind)
  {
    switch (kind)
    {
      case ClientEventKind::RwReq:
        return "rwReq";
      case ClientEventKind::RwRes:
        return "rwRes";
      case ClientEventKind::RoReq:
        return "roReq";
      case ClientEventKind::RoRes:
        return "roRes";
      case ClientEventKind::Status:
        return "status";
    }
    return "unknown";
  }

  TxId Session::app_txid(const consensus::Ledger& ledger, size_t k)
  {
    // The ledger's Data-index list and term_at are exact below a
    // compaction hole, so ids are identical whether the prefix was
    // replayed or snapshotted away.
    return TxId{
      ledger.term_at(ledger.data_indices()[k]), static_cast<Index>(k + 1)};
  }

  std::vector<TxId> Session::app_txids_upto(
    const consensus::RaftNode& node, Index upto)
  {
    const auto& ledger = node.ledger();
    const size_t count = ledger.data_count_upto(upto);
    std::vector<TxId> out;
    out.reserve(count);
    for (size_t k = 0; k < count; ++k)
    {
      out.push_back(app_txid(ledger, k));
    }
    return out;
  }

  const Session::Pending* Session::find(uint64_t client_seq) const
  {
    const auto it = std::lower_bound(
      pending_.begin(),
      pending_.end(),
      client_seq,
      [](const Pending& p, uint64_t seq) { return p.client_seq < seq; });
    if (it == pending_.end() || it->client_seq != client_seq)
    {
      return nullptr;
    }
    return &*it;
  }

  Session::Pending* Session::find(uint64_t client_seq)
  {
    return const_cast<Pending*>(std::as_const(*this).find(client_seq));
  }

  std::optional<uint64_t> Session::submit_rw(
    std::string payload, std::optional<NodeId> server)
  {
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return std::nullopt;
    }

    const uint64_t seq = next_seq_++;
    ClientEvent req;
    req.kind = ClientEventKind::RwReq;
    req.client_seq = seq;
    history_.push_back(req);

    const auto raw = cluster_.submit(Target(*target), std::move(payload));
    if (!raw)
    {
      return seq; // requested but never executed (the node refused)
    }
    const auto& node = cluster_.node(*target);

    // The response carries the application-level tx id: (term, position
    // among application transactions) — and everything observed before it.
    auto observed = app_txids_upto(node, raw->index - 1);
    const TxId app_id{raw->term, static_cast<Index>(observed.size() + 1)};

    ClientEvent res;
    res.kind = ClientEventKind::RwRes;
    res.client_seq = seq;
    res.txid = app_id;
    res.observed = std::move(observed);
    pending_.push_back({seq, false, app_id, *raw, history_.size(), false});
    history_.push_back(std::move(res));
    note_batched_submit();
    return seq;
  }

  AppSubmitResult Session::submit_app(const std::function<bool(kv::Tx&)>& body)
  {
    const auto leader = cluster_.find_leader();
    if (!leader)
    {
      return {AppOutcome::NoLeader, std::nullopt};
    }

    kv::Tx tx(
      speculative_view(*leader), cluster_.store(*leader).current_version());
    if (!body(tx))
    {
      return {AppOutcome::Aborted, std::nullopt};
    }
    if (!tx.has_writes())
    {
      // A pure read executed against the leader's view; nothing to
      // replicate (callers wanting it in the history use begin_read +
      // submit_ro).
      return {AppOutcome::Submitted, std::nullopt};
    }

    const auto seq = submit_rw(tx.payload(), *leader);
    if (!seq)
    {
      return {AppOutcome::NoLeader, std::nullopt};
    }
    if (!raw_txid_of(*seq))
    {
      return {AppOutcome::Refused, seq};
    }
    return {AppOutcome::Submitted, seq};
  }

  std::optional<kv::Tx> Session::begin_read(std::optional<NodeId> server)
  {
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return std::nullopt;
    }
    if (cluster_.node(*target).role() != Role::Leader)
    {
      return std::nullopt;
    }
    return kv::Tx(
      speculative_view(*target), cluster_.store(*target).current_version());
  }

  std::optional<TxId> Session::sign()
  {
    const auto txid = cluster_.sign();
    if (txid)
    {
      batch_signatures_.push_back(*txid);
      batch_fill_ = 0;
    }
    return txid;
  }

  std::optional<TxId> Session::flush()
  {
    if (batch_fill_ == 0)
    {
      return std::nullopt;
    }
    return sign();
  }

  void Session::note_batched_submit()
  {
    batch_fill_ += 1;
    if (options_.batch_size > 0 && batch_fill_ >= options_.batch_size)
    {
      sign();
    }
  }

  std::optional<uint64_t> Session::submit_ro(std::optional<NodeId> server)
  {
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return std::nullopt;
    }
    auto& node = cluster_.node(*target);

    const uint64_t seq = next_seq_++;
    ClientEvent req;
    req.kind = ClientEventKind::RoReq;
    req.client_seq = seq;
    history_.push_back(req);

    // Only a node that believes itself leader answers read-only
    // transactions (§7: including a stale leader that was not yet
    // deposed).
    if (node.role() != Role::Leader)
    {
      return seq;
    }
    auto observed = app_txids_upto(node, node.ledger().last_index());
    const TxId at{node.current_term(), static_cast<Index>(observed.size())};

    ClientEvent res;
    res.kind = ClientEventKind::RoRes;
    res.client_seq = seq;
    res.txid = at;
    res.observed = std::move(observed);
    pending_.push_back({seq, true, at, TxId{}, history_.size(), false});
    history_.push_back(std::move(res));
    return seq;
  }

  TxStatus Session::poll(uint64_t client_seq, std::optional<NodeId> server)
  {
    Pending* p = find(client_seq);
    if (p == nullptr)
    {
      return TxStatus::Unknown;
    }
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return TxStatus::Unknown;
    }
    const auto& node = cluster_.node(*target);

    // A transaction (read-write at position i, read-only observing i
    // transactions) is COMMITTED when the node's committed application
    // prefix covers position i and agrees with what was observed, and
    // INVALID when the committed prefix covers i but diverges.
    const auto& ledger = node.ledger();
    const size_t at = p->txid.index;
    TxStatus status = TxStatus::Pending;
    if (ledger.data_count_upto(node.commit_index()) >= at)
    {
      const auto& observed = history_[p->response].observed;
      bool matches = true;
      for (size_t k = 0; matches && k < observed.size() && k < at; ++k)
      {
        matches = app_txid(ledger, k) == observed[k];
      }
      if (!p->read_only && matches)
      {
        matches = at >= 1 && app_txid(ledger, at - 1) == p->txid;
      }
      status = matches ? TxStatus::Committed : TxStatus::Invalid;
    }

    if (
      (status == TxStatus::Committed || status == TxStatus::Invalid) &&
      !p->terminal)
    {
      p->terminal = true;
      ClientEvent ev;
      ev.kind = ClientEventKind::Status;
      ev.client_seq = client_seq;
      ev.txid = p->txid;
      ev.status = status;
      history_.push_back(ev);
    }
    return status;
  }

  TxStatus Session::commit_ack(
    uint64_t client_seq, std::optional<NodeId> server) const
  {
    const Pending* p = find(client_seq);
    if (p == nullptr || p->read_only || p->raw.index == 0)
    {
      return TxStatus::Unknown;
    }
    const auto target = server ? server : cluster_.find_leader();
    if (!target || !cluster_.has_node(*target))
    {
      return TxStatus::Unknown;
    }
    return cluster_.node(*target).status(p->raw);
  }

  std::optional<TxId> Session::txid_of(uint64_t client_seq) const
  {
    const Pending* p = find(client_seq);
    if (p == nullptr)
    {
      return std::nullopt;
    }
    return p->txid;
  }

  std::optional<TxId> Session::raw_txid_of(uint64_t client_seq) const
  {
    const Pending* p = find(client_seq);
    if (p == nullptr || p->read_only || p->raw.index == 0)
    {
      return std::nullopt;
    }
    return p->raw;
  }

  kv::ReadView Session::speculative_view(NodeId id) const
  {
    // Ordered-but-uncommitted Data entries in the node's ledger, newest
    // first, overlaid on its committed store — so a transaction in the
    // open signature batch reads the writes of its batch predecessors
    // (the leader executes speculatively, §2.1).
    return [this, id](
             const std::string& full_key) -> std::optional<std::string> {
      const auto& node = cluster_.node(id);
      const auto& ledger = node.ledger();
      for (Index i = ledger.last_index(); i > node.commit_index(); --i)
      {
        const auto& entry = ledger.at(i);
        if (entry.type != EntryType::Data)
        {
          continue;
        }
        const auto ws = kv::decode_payload(entry.data);
        if (!ws)
        {
          continue;
        }
        for (auto it = ws->writes.rbegin(); it != ws->writes.rend(); ++it)
        {
          if (it->key == full_key)
          {
            return it->value;
          }
        }
      }
      return cluster_.store(id).get(full_key);
    };
  }
}
