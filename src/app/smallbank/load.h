// Open-loop SmallBank load runner (§8-style serving-layer benchmark).
//
// Drives one deterministic cluster shard through a Session: operations
// arrive on a fixed schedule (open loop — arrivals do not wait for
// completions, so queueing delay is visible in the latency distribution),
// execute as SmallBank transactions on the leader, batch into signature
// transactions, and are acknowledged through the TxStatus lifecycle.
// Commit latency is measured in simulated ticks from submission to the
// first COMMITTED acknowledgement. The session's client history is the
// run's consistency-trace raw material.
//
// The runner is a library so tests validate the same code path the
// bench/smallbank_load harness measures; multi-threaded load is N
// independent shards (distinct seeds), mirroring the repo's
// independent-walk parallelism.
#pragma once

#include <cstdint>
#include <vector>

#include "app/smallbank/smallbank.h"
#include "driver/cluster.h"
#include "driver/session.h"

namespace scv::app::smallbank
{
  struct LoadOptions
  {
    driver::ClusterOptions cluster;
    WorkloadOptions workload;
    uint64_t seed = 1;
    /// Load phase length, in ticks.
    uint64_t duration_ticks = 400;
    /// One operation arrives every `submit_period` ticks (open loop).
    uint64_t submit_period = 2;
    /// Session batch size: a signature transaction every N accepted
    /// read-write transactions.
    size_t batch_size = 4;
  };

  struct LoadResult
  {
    /// Operations the workload generated (arrivals).
    uint64_t submitted = 0;
    /// Read-write transactions a leader executed and started replicating.
    uint64_t executed = 0;
    /// Executed transactions acknowledged COMMITTED.
    uint64_t committed = 0;
    /// Executed transactions acknowledged INVALID.
    uint64_t invalid = 0;
    /// Arrivals no leader accepted (no leader, or the node refused).
    uint64_t rejected = 0;
    /// Application-level refusals (e.g. a withdrawal that would overdraw
    /// savings): executed but wrote nothing, so nothing replicated.
    uint64_t app_refused = 0;
    /// balance operations served as read-only transactions.
    uint64_t ro_reads = 0;
    /// Executed transactions still unacknowledged when the run ended.
    uint64_t unresolved = 0;
    /// Ticks the shard ran (load + drain).
    uint64_t ticks = 0;
    /// Per-transaction commit latency in ticks (submission -> first
    /// COMMITTED acknowledgement), one entry per committed transaction.
    std::vector<uint64_t> commit_latency_ticks;
  };

  /// Commit-latency percentile (p in [0,100]) by nearest-rank; 0 when
  /// empty.
  uint64_t latency_percentile(std::vector<uint64_t> latencies, double p);

  class LoadRunner
  {
  public:
    explicit LoadRunner(LoadOptions options);

    /// Creates the accounts (replicated + committed), runs the open-loop
    /// load phase, drains, and returns the tallies. Call once.
    LoadResult run();

    /// The shard, for post-run inspection (replica agreement, ledger
    /// oracle replay).
    [[nodiscard]] driver::Cluster& cluster()
    {
      return cluster_;
    }

    /// The session, for its client history (consistency-trace material).
    [[nodiscard]] driver::Session& session()
    {
      return session_;
    }

  private:
    /// Advances one tick: tick all nodes, deliver every in-flight
    /// message, then acknowledge outstanding transactions.
    void step(LoadResult& result);

    LoadOptions options_;
    Rng rng_;
    driver::Cluster cluster_;
    driver::Session session_;

    struct Outstanding
    {
      uint64_t seq;
      uint64_t submit_tick;
    };
    std::vector<Outstanding> outstanding_;
    uint64_t tick_ = 0;
  };
}
