#include "app/smallbank/load.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace scv::app::smallbank
{
  using consensus::TxStatus;

  namespace
  {
    /// Opening balances for every account.
    constexpr int64_t kInitialChecking = 10000;
    constexpr int64_t kInitialSavings = 10000;
    /// Operations per arrival instant.
    constexpr uint64_t kOpsPerArrival = 1;
    /// Extra ticks after the last arrival to let in-flight transactions
    /// commit (and again to let followers converge).
    constexpr uint64_t kDrainTicks = 300;
  }

  uint64_t latency_percentile(std::vector<uint64_t> latencies, double p)
  {
    if (latencies.empty())
    {
      return 0;
    }
    std::sort(latencies.begin(), latencies.end());
    const double rank = p / 100.0 * static_cast<double>(latencies.size());
    size_t idx = static_cast<size_t>(std::ceil(rank));
    idx = std::min(std::max<size_t>(idx, 1), latencies.size());
    return latencies[idx - 1];
  }

  LoadRunner::LoadRunner(LoadOptions options) :
    options_(std::move(options)),
    rng_(options_.seed),
    cluster_(
      [&] {
        driver::ClusterOptions c = options_.cluster;
        // Shard-distinct network/schedule randomness.
        c.seed = c.seed ^ splitmix64(options_.seed);
        return c;
      }()),
    session_(cluster_, driver::SessionOptions{options_.batch_size})
  {}

  void LoadRunner::step(LoadResult& result)
  {
    cluster_.tick_all();
    cluster_.drain();
    tick_ += 1;
    result.ticks = tick_;

    for (auto it = outstanding_.begin(); it != outstanding_.end();)
    {
      // Raw (view, seqno) acknowledgement drives latency; poll() keeps
      // the application-level history record.
      const TxStatus ack = session_.commit_ack(it->seq);
      session_.poll(it->seq);
      if (ack == TxStatus::Committed)
      {
        result.committed += 1;
        result.commit_latency_ticks.push_back(tick_ - it->submit_tick);
        it = outstanding_.erase(it);
      }
      else if (ack == TxStatus::Invalid)
      {
        result.invalid += 1;
        it = outstanding_.erase(it);
      }
      else
      {
        ++it;
      }
    }
  }

  LoadResult LoadRunner::run()
  {
    SCV_CHECK_MSG(tick_ == 0, "run() must only be called once");
    LoadResult result;

    // --- setup: create the accounts and wait for the write to commit.
    const auto setup = session_.submit_app([&](kv::Tx& tx) {
      create_accounts(
        tx,
        options_.workload.accounts,
        kInitialChecking,
        kInitialSavings);
      return true;
    });
    SCV_CHECK_MSG(
      setup.outcome == driver::AppOutcome::Submitted && setup.seq,
      "account creation needs a leader at start of run");
    session_.flush();
    for (uint64_t i = 0; i < 200; ++i)
    {
      cluster_.tick_all();
      cluster_.drain();
      if (session_.commit_ack(*setup.seq) == TxStatus::Committed)
      {
        break;
      }
    }
    SCV_CHECK_MSG(
      session_.commit_ack(*setup.seq) == TxStatus::Committed,
      "account creation did not commit");
    session_.poll(*setup.seq);

    // --- open-loop load phase: arrivals on a fixed schedule, regardless
    // of how many earlier operations are still in flight.
    for (uint64_t t = 0; t < options_.duration_ticks; ++t)
    {
      if (t % options_.submit_period == 0)
      {
        for (uint64_t k = 0; k < kOpsPerArrival; ++k)
        {
          const Op op = next_op(rng_, options_.workload);
          result.submitted += 1;
          if (op.kind == OpKind::Balance)
          {
            // Served as a read-only transaction by the leader's local
            // speculative view; recorded in the history.
            if (session_.submit_ro())
            {
              result.ro_reads += 1;
            }
            else
            {
              result.rejected += 1;
            }
            continue;
          }
          const auto sub = session_.submit_app(
            [&](kv::Tx& tx) { return execute(tx, op).ok; });
          switch (sub.outcome)
          {
            case driver::AppOutcome::Submitted:
              if (sub.seq)
              {
                result.executed += 1;
                outstanding_.push_back({*sub.seq, tick_});
              }
              else
              {
                // Executed but wrote nothing (shouldn't happen for the
                // write procedures; counted defensively).
                result.app_refused += 1;
              }
              break;
            case driver::AppOutcome::Aborted:
              result.app_refused += 1;
              break;
            case driver::AppOutcome::NoLeader:
            case driver::AppOutcome::Refused:
              result.rejected += 1;
              break;
          }
        }
      }
      step(result);
    }

    // --- drain: close the open batch and let in-flight commits land.
    session_.flush();
    for (uint64_t t = 0; t < kDrainTicks && !outstanding_.empty(); ++t)
    {
      step(result);
    }
    result.unresolved = outstanding_.size();

    // Convergence tail: the leader acknowledges commits one heartbeat
    // before followers learn the new commit index; run until every node's
    // committed prefix matches so post-run replica checks see a quiet
    // cluster.
    for (uint64_t t = 0; t < kDrainTicks; ++t)
    {
      bool converged = true;
      for (const driver::NodeId id : cluster_.node_ids())
      {
        converged =
          converged && cluster_.node(id).commit_index() == cluster_.max_commit();
      }
      if (converged)
      {
        break;
      }
      step(result);
    }
    return result;
  }
}
