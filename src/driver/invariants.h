// Cross-node invariant checking over a running cluster (§6.1).
//
// The paper's scenario driver checks "core correctness invariants and
// properties at designated execution steps". This checker implements the
// implementation-level analogues of the spec's key properties:
//
//  * LogInv          — committed logs are pairwise prefix-consistent
//                      (safety across nodes, "in space")
//  * AppendOnlyProp  — a node's committed log is only ever extended
//                      (safety within a node, "in time")
//  * MonoLogInv      — terms only increase in the log, and only
//                      immediately after a signature
//  * ElectionSafety  — at most one leader per term
//  * CommitMonotonic — commit indices never regress
//  * CommittableSigs — the committable set contains every signature above
//                      the commit index (the implicit property broken by
//                      the first fix for "commit advance for previous term")
//  * MatchSanity     — a leader never believes a peer has replicated more
//                      than the peer's actual (same-term) log
//  * LedgerAudit     — every signature transaction's embedded Merkle root
//                      and signature verify against the preceding entries
//                      (offline auditability, §2.1)
//
// check() is called at designated steps; it accumulates history (committed
// prefixes, observed leaders) between calls, so temporal properties are
// checked across the whole run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "driver/cluster.h"

namespace scv::driver
{
  class InvariantChecker
  {
  public:
    explicit InvariantChecker(const Cluster& cluster);

    /// Runs every check; returns violations found in this call and
    /// also accumulates them in all_violations().
    std::vector<std::string> check();

    [[nodiscard]] const std::vector<std::string>& all_violations() const
    {
      return violations_;
    }

    [[nodiscard]] bool ok() const
    {
      return violations_.empty();
    }

  private:
    void check_log_inv(std::vector<std::string>& out) const;
    void check_append_only(std::vector<std::string>& out);
    void check_mono_log(std::vector<std::string>& out) const;
    void check_election_safety(std::vector<std::string>& out) const;
    void check_commit_monotonic(std::vector<std::string>& out);
    void check_committable_sigs(std::vector<std::string>& out) const;
    void check_match_sanity(std::vector<std::string>& out) const;
    void check_ledger_audit(std::vector<std::string>& out) const;

    const Cluster& cluster_;
    std::vector<std::string> violations_;

    // History for temporal checks.
    std::map<NodeId, Index> prev_commit_;
    std::map<NodeId, uint64_t> prev_prefix_fingerprint_;
  };

  /// Fingerprint of a node's committed prefix (entry digests up to `len`).
  uint64_t committed_prefix_fingerprint(
    const consensus::RaftNode& node, Index len);
}
