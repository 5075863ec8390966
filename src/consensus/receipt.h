// Transaction receipts and offline ledger audit (§2.1).
//
// "Offline log integrity and transaction provenance are key requirements
// for CCF ... The offline guarantees crucially enable external audit, and
// disaster recovery."
//
// A receipt proves, to a verifier holding nothing but the receipt, that a
// transaction is covered by a leader-signed Merkle root: it carries the
// entry's digest, the Merkle inclusion path to the root embedded in a
// later signature transaction, and that signature. Auditing a whole
// ledger re-derives every signature transaction's root from the preceding
// entries and verifies the signer's signature over it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "consensus/ledger.h"
#include "crypto/merkle_tree.h"
#include "crypto/signer.h"

namespace scv::consensus
{
  /// Self-contained proof that the entry at `index` is covered by the
  /// signature transaction at `signature_index`.
  struct Receipt
  {
    Index index = 0;
    crypto::Digest entry_digest{};
    crypto::Path path; // inclusion path to the signed root
    Index signature_index = 0;
    crypto::Digest root{};
    crypto::Signature signature;
    NodeId signer = 0;
  };

  /// Builds a receipt for `index` against the first signature transaction
  /// at or after it. Returns nullopt when no later signature exists (the
  /// transaction is not yet provable — it may still be PENDING).
  std::optional<Receipt> make_receipt(const Ledger& ledger, Index index);

  /// Verifies a receipt with no access to the ledger: checks the
  /// signature over the root and the inclusion path from the entry digest
  /// to the root.
  bool verify_receipt(const Receipt& receipt);

  struct AuditReport
  {
    bool ok = false;
    size_t signatures_checked = 0;
    /// Index of the first bad signature transaction (0 when ok).
    Index first_failure = 0;
    std::string message;
  };

  /// Offline audit: for every signature transaction, recompute the Merkle
  /// root over all preceding entries and verify the signer's signature.
  /// Detects any tampering with committed history. The audit grows its own
  /// tree from the ledger's leaves (O(n) per audit), so it never trusts
  /// the ledger's cached tree levels.
  AuditReport audit_ledger(const Ledger& ledger);
}
