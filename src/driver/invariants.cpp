#include "driver/invariants.h"

#include <sstream>

#include "consensus/receipt.h"
#include "util/hash.h"

namespace scv::driver
{
  uint64_t committed_prefix_fingerprint(
    const consensus::RaftNode& node, Index len)
  {
    ByteSink sink;
    for (Index i = 1; i <= len && i <= node.ledger().last_index(); ++i)
    {
      // Merkle leaves survive compaction, so the fingerprint is stable
      // across a snapshot hole.
      const auto& d = node.ledger().leaf_digest(i);
      sink.raw(d.data(), d.size());
    }
    return sink.digest();
  }

  InvariantChecker::InvariantChecker(const Cluster& cluster) :
    cluster_(cluster)
  {}

  std::vector<std::string> InvariantChecker::check()
  {
    std::vector<std::string> found;
    check_log_inv(found);
    check_append_only(found);
    check_mono_log(found);
    check_election_safety(found);
    check_commit_monotonic(found);
    check_committable_sigs(found);
    check_match_sanity(found);
    check_ledger_audit(found);
    // Refresh temporal-check history only after every check has seen the
    // previous snapshot.
    for (const NodeId id : cluster_.node_ids())
    {
      const auto& n = cluster_.node(id);
      prev_commit_[id] = n.commit_index();
      prev_prefix_fingerprint_[id] =
        committed_prefix_fingerprint(n, n.commit_index());
    }
    violations_.insert(violations_.end(), found.begin(), found.end());
    return found;
  }

  void InvariantChecker::check_log_inv(std::vector<std::string>& out) const
  {
    const auto ids = cluster_.node_ids();
    for (size_t a = 0; a < ids.size(); ++a)
    {
      for (size_t b = a + 1; b < ids.size(); ++b)
      {
        const auto& na = cluster_.node(ids[a]);
        const auto& nb = cluster_.node(ids[b]);
        const Index upto = std::min(
          {na.commit_index(),
           nb.commit_index(),
           na.ledger().last_index(),
           nb.ledger().last_index()});
        for (Index i = 1; i <= upto; ++i)
        {
          if (na.ledger().leaf_digest(i) != nb.ledger().leaf_digest(i))
          {
            std::ostringstream os;
            os << "LogInv: nodes " << ids[a] << " and " << ids[b]
               << " disagree on committed entry " << i << " (terms "
               << na.ledger().term_at(i) << " vs " << nb.ledger().term_at(i)
               << ")";
            out.push_back(os.str());
            break;
          }
        }
      }
    }
  }

  void InvariantChecker::check_append_only(std::vector<std::string>& out)
  {
    for (const NodeId id : cluster_.node_ids())
    {
      const auto& n = cluster_.node(id);
      const auto prev = prev_commit_.find(id);
      if (prev != prev_commit_.end())
      {
        // The committed prefix must only ever be extended: neither shrink
        // (commit regression is reported separately) nor change content.
        const uint64_t fp = committed_prefix_fingerprint(n, prev->second);
        if (fp != prev_prefix_fingerprint_[id])
        {
          std::ostringstream os;
          os << "AppendOnlyProp: node " << id
             << " changed its committed prefix up to index " << prev->second;
          out.push_back(os.str());
        }
      }
    }
  }

  void InvariantChecker::check_mono_log(std::vector<std::string>& out) const
  {
    for (const NodeId id : cluster_.node_ids())
    {
      const auto& ledger = cluster_.node(id).ledger();
      for (Index i = 1; i + 1 <= ledger.last_index(); ++i)
      {
        const auto cur_term = ledger.term_at(i);
        const auto next_term = ledger.term_at(i + 1);
        const bool ok = cur_term == next_term ||
          (cur_term < next_term &&
           ledger.type_at(i) == consensus::EntryType::Signature);
        if (!ok)
        {
          std::ostringstream os;
          os << "MonoLogInv: node " << id << " has term change " << cur_term
             << "->" << next_term << " at index " << i
             << " not preceded by a signature";
          out.push_back(os.str());
          break;
        }
      }
    }
  }

  void InvariantChecker::check_election_safety(
    std::vector<std::string>& out) const
  {
    for (const auto& [term, leaders] : cluster_.leaders_by_term())
    {
      if (leaders.size() > 1)
      {
        std::ostringstream os;
        os << "ElectionSafety: term " << term << " elected " << leaders.size()
           << " leaders";
        out.push_back(os.str());
      }
    }
  }

  void InvariantChecker::check_commit_monotonic(std::vector<std::string>& out)
  {
    for (const NodeId id : cluster_.node_ids())
    {
      const auto& n = cluster_.node(id);
      const auto prev = prev_commit_.find(id);
      if (prev != prev_commit_.end() && n.commit_index() < prev->second)
      {
        std::ostringstream os;
        os << "CommitMonotonic: node " << id << " commit index regressed "
           << prev->second << "->" << n.commit_index();
        out.push_back(os.str());
      }
    }
  }

  void InvariantChecker::check_committable_sigs(
    std::vector<std::string>& out) const
  {
    for (const NodeId id : cluster_.node_ids())
    {
      const auto& n = cluster_.node(id);
      if (n.role() != consensus::Role::Leader)
      {
        continue;
      }
      for (const Index sig :
           n.ledger().signature_indices_after(n.commit_index()))
      {
        if (!n.committable_indices().contains(sig))
        {
          std::ostringstream os;
          os << "CommittableSigs: leader " << id << " signature at " << sig
             << " missing from committable set";
          out.push_back(os.str());
        }
      }
    }
  }

  void InvariantChecker::check_ledger_audit(std::vector<std::string>& out) const
  {
    for (const NodeId id : cluster_.node_ids())
    {
      const auto report =
        consensus::audit_ledger(cluster_.node(id).ledger());
      if (!report.ok)
      {
        std::ostringstream os;
        os << "LedgerAudit: node " << id << ": " << report.message;
        out.push_back(os.str());
      }
    }
  }

  void InvariantChecker::check_match_sanity(std::vector<std::string>& out) const
  {
    for (const NodeId id : cluster_.node_ids())
    {
      const auto& leader = cluster_.node(id);
      if (leader.role() != consensus::Role::Leader)
      {
        continue;
      }
      for (const NodeId peer_id : cluster_.node_ids())
      {
        if (peer_id == id)
        {
          continue;
        }
        const auto& peer = cluster_.node(peer_id);
        // A leader can only have confirmed replication of entries it
        // actually has (bug 5 lets ACKs report a longer local log).
        if (leader.match_index(peer_id) > leader.ledger().last_index())
        {
          std::ostringstream os;
          os << "MatchSanity: leader " << id << " tracks match "
             << leader.match_index(peer_id) << " for peer " << peer_id
             << " beyond its own log end " << leader.ledger().last_index();
          out.push_back(os.str());
        }
        // A peer that has replicated index i in the leader's term must
        // actually have i entries; over-reporting means the leader may
        // commit unreplicated data (bugs 3 and 5).
        if (
          peer.current_term() == leader.current_term() &&
          peer.role() == consensus::Role::Follower &&
          leader.match_index(peer_id) > peer.ledger().last_index())
        {
          std::ostringstream os;
          os << "MatchSanity: leader " << id << " believes peer " << peer_id
             << " replicated " << leader.match_index(peer_id)
             << " but peer log ends at " << peer.ledger().last_index();
          out.push_back(os.str());
        }
      }
    }
  }
}
