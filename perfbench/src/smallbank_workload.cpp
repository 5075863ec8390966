// SmallBank serving phase: open loops on the simulated clock against a
// 3-node cluster with injected link delay and a bounded network. One pass
// is
//   * throughput runs: long runs at one op per tick, the leader crashed at
//     mid-run and restarted from its persisted ledger kDownTicks later;
//   * failover runs: many short runs of the same shape, for steady
//     time-without-service and failure figures;
//   * the capacity ladder: fault-free runs at rising arrival rates.
//
// Latencies in ticks are simulated time and repeat exactly for a seed;
// wall-clock figures (throughput, submit latency) are measured around the
// public calls of Session and Cluster.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "app/smallbank/smallbank.h"
#include "driver/cluster.h"
#include "driver/session.h"
#include "kv/tx.h"
#include "stats.h"
#include "trace/client_history_io.h"
#include "trace/consistency_binding.h"
#include "workloads.h"

namespace perfbench
{
  namespace
  {
    using namespace scv;
    using consensus::TxStatus;
    using driver::AppOutcome;

    // Workload constants; README.md and BENCHMARK.json state them.
    constexpr uint64_t kAccounts = 50;
    constexpr size_t kBatch = 4;
    constexpr uint64_t kMinDelay = 1;
    constexpr uint64_t kMaxDelay = 3;
    /// Network capacity: messages delivered per tick, at most.
    constexpr size_t kDeliveriesPerTick = 24;
    /// Arrivals per 1000 ticks in the throughput and failover runs.
    constexpr uint64_t kRate = 1000;
    /// Ticks the crashed leader stays down before it restarts.
    constexpr uint64_t kDownTicks = 50;
    constexpr uint64_t kDrainTicks = 300;
    /// Capacity ladder (arrivals per 1000 ticks, steps of about sqrt 2),
    /// its p99 commit-latency limit, and arrivals per rung: enough
    /// read-write requests to support a p99.
    constexpr uint64_t kLadder[] = {1000, 1400, 2000, 2800, 4000, 5600, 8000};
    constexpr double kCommitLimitTicks = 40;
    constexpr uint64_t kLadderArrivals = 1500;
    /// Consistency-spec transaction bound for the history prefix check.
    constexpr size_t kHistoryPrefixTxs = 14;
    /// A set of throughput runs, the unit the primary phase repeats; an
    /// untraced phase makes at least kTimedSets after the reference set.
    /// The failover runs run once.
    constexpr uint64_t kThroughputRuns = 6;
    constexpr size_t kTimedSets = 3;
    constexpr uint64_t kThroughputTicks = 2000;
    constexpr uint64_t kFailoverRuns = 160;
    constexpr uint64_t kFailoverTicks = 600;

    struct ShardSpec
    {
      uint64_t seed = 0;
      uint64_t ticks = 0;
      uint64_t rate = kRate;
      bool failover = false;
      /// Stop as soon as the p99 commit limit can no longer be met.
      bool stop_on_miss = false;
      /// Time Ledger::root() at 1/8 of the run and at the end.
      bool time_merkle = false;
    };

    struct ShardResult
    {
      Outcomes outcomes;
      std::vector<double> commit_ticks;
      std::vector<double> submit_us;
      double setup_s = 0;
      double wall_s = 0;
      uint64_t unavailable_ticks = 0;
      uint64_t catchup_ticks = 0;
      bool backlog_grows = false;
      bool missed_limit = false;
      uint64_t outstanding_max = 0;
      uint64_t msgs_sent = 0;
      uint64_t entries = 0;
      uint64_t signatures = 0;
      uint64_t elections = 0;
      uint64_t kv_versions = 0;
      double merkle_early_us = 0;
      double merkle_end_us = 0;
      std::vector<std::string> errors;

      /// The simulated-time results, which must repeat exactly.
      [[nodiscard]] bool same_simulation(const ShardResult& o) const
      {
        return commit_ticks == o.commit_ticks && outcomes == o.outcomes &&
          unavailable_ticks == o.unavailable_ticks &&
          catchup_ticks == o.catchup_ticks;
      }
    };

    double us_since(uint64_t start)
    {
      return static_cast<double>(now_ns() - start) / 1e3;
    }

    double merkle_root_us(driver::Cluster& cluster)
    {
      const auto leader = cluster.find_leader();
      if (!leader)
      {
        return 0.0;
      }
      std::vector<double> samples;
      for (int i = 0; i < 5; ++i)
      {
        const uint64_t start = now_ns();
        const auto root = cluster.node(*leader).ledger().root();
        samples.push_back(us_since(start));
        (void)root;
      }
      return median(samples);
    }

    /// Post-run checks: replicas (the restarted node included) agree on
    /// every smallbank.* key, replaying the leader's committed ledger
    /// reproduces its store, savings stay non-negative, and the run's
    /// bounded history prefix validates against the consistency spec.
    void check_shard(
      driver::Cluster& cluster,
      const driver::Session& session,
      ShardResult& r)
    {
      auto fail = [&](const std::string& what) { r.errors.push_back(what); };
      const auto leader = cluster.find_leader();
      if (!leader)
      {
        fail("no leader after drain");
        return;
      }
      auto& reference = cluster.store(*leader);
      const auto keys = reference.keys_with_prefix("smallbank.");
      for (const auto id : cluster.node_ids())
      {
        if (cluster.node(id).commit_index() != cluster.max_commit())
        {
          fail("node " + std::to_string(id) + " did not converge");
          continue;
        }
        auto& store = cluster.store(id);
        if (store.keys_with_prefix("smallbank.") != keys)
        {
          fail("node " + std::to_string(id) + " key set diverges");
          continue;
        }
        for (const auto& key : keys)
        {
          if (store.get(key) != reference.get(key))
          {
            fail("node " + std::to_string(id) + " diverges at " + key);
            break;
          }
        }
      }
      for (const auto& key : reference.keys_with_prefix("smallbank.savings/"))
      {
        const auto value = reference.get(key);
        if (!value || std::stoll(*value) < 0)
        {
          fail("negative savings at " + key);
        }
      }
      kv::Store oracle;
      const auto& node = cluster.node(*leader);
      for (consensus::Index i = 1; i <= node.commit_index(); ++i)
      {
        const auto& entry = node.ledger().at(i);
        if (entry.type != consensus::EntryType::Data)
        {
          continue;
        }
        if (const auto ws = kv::decode_payload(entry.data))
        {
          oracle.commit(oracle.apply(*ws));
        }
      }
      for (const auto& key : keys)
      {
        if (oracle.get(key) != reference.get(key))
        {
          fail("ledger replay diverges at " + key);
          break;
        }
      }
      const auto prefix =
        trace::history_prefix_within(session.history(), kHistoryPrefixTxs);
      if (!trace::validate_consistency_trace(prefix).ok)
      {
        fail("history prefix does not validate against the consistency spec");
      }
    }

    /// Runs `call` under a span that is renamed to `signed_name` when the
    /// call closed a batch with a signature transaction.
    template <class F>
    void maybe_signing(
      SpanRecorder& spans,
      const driver::Session& session,
      const char* name,
      const char* signed_name,
      uint64_t request,
      F&& call)
    {
      if (!spans.enabled())
      {
        call();
        return;
      }
      const size_t signed_before = session.batch_signatures().size();
      const size_t handle = spans.open(name, request);
      call();
      spans.close(handle);
      if (session.batch_signatures().size() != signed_before)
      {
        spans.rename(handle, signed_name);
      }
    }

    ShardResult run_shard(const ShardSpec& spec, SpanRecorder& spans)
    {
      ShardResult r;
      const uint64_t setup_start = now_ns();
      driver::ClusterOptions copts;
      copts.min_latency = kMinDelay;
      copts.max_latency = kMaxDelay;
      copts.seed = spec.seed;
      driver::Cluster cluster(copts);
      driver::Session session(cluster, driver::SessionOptions{kBatch});

      // Set-up: create the accounts and wait until they commit.
      const auto created = session.submit_app([](kv::Tx& tx) {
        app::smallbank::create_accounts(tx, kAccounts, 10000, 10000);
        return true;
      });
      if (created.outcome != AppOutcome::Submitted || !created.seq)
      {
        r.errors.push_back("account creation found no leader");
        return r;
      }
      session.flush();
      for (int i = 0; i < 200 &&
           session.commit_ack(*created.seq) != TxStatus::Committed;
           ++i)
      {
        cluster.tick_all();
        cluster.drain(kDeliveriesPerTick);
      }
      if (session.poll(*created.seq) != TxStatus::Committed)
      {
        r.errors.push_back("account creation did not commit");
        return r;
      }
      r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

      const uint64_t load_start = now_ns();
      const uint64_t clock_at_load = cluster.now();
      const uint64_t sent_at_load = cluster.network().stats().sent;
      const uint64_t entries_at_load = cluster.max_commit();

      Rng rng(derive_seed(spec.seed, 1));
      app::smallbank::WorkloadOptions mix;
      mix.accounts = kAccounts;

      struct Outstanding
      {
        uint64_t seq;
        uint64_t due;
        uint64_t request;
      };
      std::vector<Outstanding> outstanding;
      std::vector<uint64_t> backlog; // outstanding count per load tick
      uint64_t arrivals = 0;
      const uint64_t total_arrivals = spec.ticks * spec.rate / 1000;
      const auto due_tick = [&](uint64_t i) { return i * 1000 / spec.rate; };
      // Committed requests that already missed the latency limit.
      uint64_t slow_commits = 0;

      const uint64_t crash_tick = spec.ticks / 2;
      const uint64_t restart_tick = crash_tick + kDownTicks;
      std::optional<driver::NodeId> crashed;
      std::optional<uint64_t> first_accept;
      std::optional<uint64_t> restarted_at;
      uint64_t catchup_target = 0;

      const auto step = [&](uint64_t tick) {
        {
          SpanRecorder::Scope s(spans, "cluster.tick_all");
          cluster.tick_all();
        }
        {
          SpanRecorder::Scope s(spans, "cluster.drain");
          cluster.drain(kDeliveriesPerTick);
        }
        for (auto it = outstanding.begin(); it != outstanding.end();)
        {
          TxStatus ack = TxStatus::Unknown;
          {
            SpanRecorder::Scope s(spans, "session.commit_ack", it->request);
            ack = session.commit_ack(it->seq);
          }
          {
            // poll() keeps the client history the consistency check
            // validates.
            SpanRecorder::Scope s(spans, "session.poll", it->request);
            session.poll(it->seq);
          }
          if (ack == TxStatus::Committed)
          {
            const uint64_t latency = tick + 1 - it->due;
            r.outcomes.committed++;
            r.commit_ticks.push_back(static_cast<double>(latency));
            slow_commits += latency > kCommitLimitTicks ? 1 : 0;
            it = outstanding.erase(it);
          }
          else if (ack == TxStatus::Invalid)
          {
            r.outcomes.invalid++;
            it = outstanding.erase(it);
          }
          else
          {
            ++it;
          }
        }
        if (restarted_at && r.catchup_ticks == 0 &&
            cluster.node(*crashed).commit_index() >= catchup_target)
        {
          r.catchup_ticks = tick + 1 - *restarted_at;
        }
      };

      for (uint64_t t = 0; t < spec.ticks; ++t)
      {
        if (spec.failover && t == crash_tick)
        {
          crashed = cluster.find_leader();
          if (!crashed)
          {
            r.errors.push_back("no leader to crash at mid-run");
            return r;
          }
          cluster.crash(*crashed);
        }
        if (crashed && t == restart_tick)
        {
          catchup_target = cluster.max_commit();
          SpanRecorder::Scope s(spans, "cluster.restart");
          cluster.restart(*crashed);
          restarted_at = t;
        }
        if (spec.time_merkle && t == spec.ticks / 8)
        {
          r.merkle_early_us = merkle_root_us(cluster);
        }

        for (; due_tick(arrivals) == t; ++arrivals)
        {
          const uint64_t request = arrivals + 1;
          const auto op = app::smallbank::next_op(rng, mix);
          bool accepted = false;
          if (op.kind == app::smallbank::OpKind::Balance)
          {
            SpanRecorder::Scope s(spans, "session.submit_ro", request);
            accepted = session.submit_ro().has_value();
            accepted ? r.outcomes.served_other++ : r.outcomes.rejected++;
          }
          else
          {
            driver::AppSubmitResult sub;
            double took = 0;
            maybe_signing(
              spans,
              session,
              "session.submit_app",
              "session.submit_app+sign",
              request,
              [&] {
                const uint64_t start = now_ns();
                sub = session.submit_app([&](kv::Tx& tx) {
                  SpanRecorder::Scope s(spans, "app.execute", request);
                  return app::smallbank::execute(tx, op).ok;
                });
                took = us_since(start);
              });
            accepted = sub.outcome == AppOutcome::Submitted ||
              sub.outcome == AppOutcome::Aborted;
            if (accepted)
            {
              r.submit_us.push_back(took);
            }
            if (sub.outcome == AppOutcome::Submitted && sub.seq)
            {
              outstanding.push_back({*sub.seq, t, request});
            }
            else
            {
              // Executed with nothing to replicate (an application
              // refusal), or not executed at all.
              accepted ? r.outcomes.served_other++ : r.outcomes.rejected++;
            }
          }
          if (accepted && crashed && !first_accept)
          {
            first_accept = t;
            r.unavailable_ticks = t - crash_tick;
          }
        }
        step(t);
        backlog.push_back(outstanding.size());
        r.outstanding_max =
          std::max<uint64_t>(r.outstanding_max, outstanding.size());

        if (spec.stop_on_miss)
        {
          // At most 1% of arrivals may miss a p99 limit; more known
          // misses decide the rung.
          uint64_t misses = slow_commits + r.outcomes.failed();
          for (const auto& o : outstanding)
          {
            misses += t + 1 - o.due > kCommitLimitTicks ? 1 : 0;
          }
          if (misses * 100 > total_arrivals)
          {
            r.missed_limit = true;
            return r;
          }
        }
      }

      maybe_signing(
        spans,
        session,
        "session.flush",
        "session.flush+sign",
        0,
        [&] { session.flush(); });
      if (spec.time_merkle)
      {
        r.merkle_end_us = merkle_root_us(cluster);
      }
      uint64_t tick = spec.ticks;
      for (; tick < spec.ticks + kDrainTicks && !outstanding.empty(); ++tick)
      {
        step(tick);
      }
      r.outcomes.unresolved = outstanding.size();
      r.wall_s = static_cast<double>(now_ns() - load_start) / 1e9;

      if (crashed && !first_accept)
      {
        r.errors.push_back("service did not resume after the crash");
      }

      // The backlog grows when the last quarter of the load phase holds
      // clearly more requests in flight than the third.
      const size_t q = backlog.size() / 4;
      if (q > 0)
      {
        double q3 = 0;
        double q4 = 0;
        for (size_t i = 0; i < q; ++i)
        {
          q3 += static_cast<double>(backlog[2 * q + i]);
          q4 += static_cast<double>(backlog[3 * q + i]);
        }
        r.backlog_grows = q4 / q > 1.25 * (q3 / q) + kBatch;
      }

      // Counts over the load phase, from the cluster's own trace.
      for (const auto& ev : cluster.trace())
      {
        if (ev.ts > clock_at_load)
        {
          r.elections += ev.kind == trace::EventKind::BecomeLeader ? 1 : 0;
          r.signatures += ev.kind == trace::EventKind::EmitSignature ? 1 : 0;
        }
      }
      r.msgs_sent = cluster.network().stats().sent - sent_at_load;

      if (!spec.failover)
      {
        return r;
      }
      // Convergence tail: followers learn the commit index a heartbeat
      // after the leader acknowledges it.
      for (uint64_t i = 0; i < kDrainTicks; ++i, ++tick)
      {
        bool converged = true;
        for (const auto id : cluster.node_ids())
        {
          converged = converged &&
            cluster.node(id).commit_index() == cluster.max_commit();
        }
        if (converged)
        {
          break;
        }
        step(tick);
      }
      r.entries = cluster.max_commit() - entries_at_load;
      if (const auto leader = cluster.find_leader())
      {
        r.kv_versions = cluster.store(*leader).current_version();
      }
      if (r.outcomes.unresolved != 0)
      {
        r.errors.push_back("executed transactions left unresolved");
      }
      check_shard(cluster, session, r);
      return r;
    }

    /// Highest ladder rate whose p99 commit latency, counting every failed
    /// request as a miss, stays within the limit without a growing
    /// backlog. The ladder stops at the first rung that misses.
    uint64_t capacity(uint64_t seed)
    {
      uint64_t best = 0;
      SpanRecorder off(false);
      for (const uint64_t rate : kLadder)
      {
        ShardSpec spec;
        spec.seed = derive_seed(seed, rate);
        spec.ticks = kLadderArrivals * 1000 / rate;
        spec.rate = rate;
        spec.stop_on_miss = true;
        const ShardResult r = run_shard(spec, off);
        const bool meets = r.errors.empty() && !r.missed_limit &&
          !r.backlog_grows &&
          meets_latency_limit(
            r.commit_ticks, r.outcomes.failed(), 99, kCommitLimitTicks);
        if (!meets)
        {
          break;
        }
        best = rate;
      }
      return best;
    }

    /// One set of throughput runs, the unit the primary phase repeats.
    std::vector<ShardResult> throughput_set(
      uint64_t seed, bool traced, SpanRecorder& spans)
    {
      std::vector<ShardResult> runs;
      for (uint64_t k = 0; k < kThroughputRuns; ++k)
      {
        ShardSpec spec;
        spec.seed = derive_seed(seed, k);
        spec.ticks = kThroughputTicks;
        spec.failover = true;
        spec.time_merkle = traced && k == 0;
        runs.push_back(run_shard(spec, spans));
      }
      return runs;
    }

    double wall_of(const std::vector<ShardResult>& runs)
    {
      double wall = 0;
      for (const ShardResult& r : runs)
      {
        wall += r.wall_s;
      }
      return wall;
    }

  }

  void run_serve(bool primary, RunContext& ctx)
  {
    Report& report = ctx.report;
    const uint64_t seed = derive_seed(ctx.seed, 0x5e7e);
    const uint64_t phase_start = now_ns();
    SpanRecorder off(false);

    // The reference set of throughput runs comes first: its simulated
    // results are the ones reported and every later set must repeat them,
    // and it warms the heap up, so its wall times are not used.
    // Simulated-time results need one run each: the reference set, the
    // failover runs and the capacity ladder.
    std::vector<std::vector<ShardResult>> sets;
    sets.push_back(throughput_set(seed, false, off));
    std::vector<ShardResult> failovers;
    for (uint64_t k = 0; k < kFailoverRuns; ++k)
    {
      ShardSpec spec;
      spec.seed = derive_seed(seed, 0x10000 + k);
      spec.ticks = kFailoverTicks;
      spec.failover = true;
      failovers.push_back(run_shard(spec, off));
    }
    const uint64_t ops_per_ktick = capacity(derive_seed(seed, 0x20000));

    // Timed sets give the wall-clock figures. Untraced, the primary phase
    // repeats them until the time is up; the traced run makes one traced
    // set, preceded on the primary phase by an untraced one that gives
    // the tracing overhead.
    if (ctx.trace && primary)
    {
      sets.push_back(throughput_set(seed, false, off));
    }
    const size_t min_sets = sets.size() + (ctx.trace ? 1 : kTimedSets);
    do
    {
      sets.push_back(
        throughput_set(seed, ctx.trace, ctx.trace ? ctx.spans : off));
    } while (sets.size() < min_sets ||
             (primary && !ctx.trace &&
              static_cast<double>(now_ns() - phase_start) / 1e9 < ctx.seconds));

    const auto& first = sets.front();
    Outcomes total;
    std::vector<double> commit_ticks;
    std::vector<double> unavailable;
    std::vector<double> setups;
    const std::vector<ShardResult>* with_failover[] = {&first, &failovers};
    for (const auto* runs : with_failover)
    {
      for (const ShardResult& r : *runs)
      {
        for (const auto& e : r.errors)
        {
          report.check(false, "smallbank: " + e);
        }
        total += r.outcomes;
        unavailable.push_back(static_cast<double>(r.unavailable_ticks));
        setups.push_back(r.setup_s);
      }
    }
    for (const ShardResult& r : first)
    {
      commit_ticks.insert(
        commit_ticks.end(), r.commit_ticks.begin(), r.commit_ticks.end());
    }
    report.check(
      ops_per_ktick > 0,
      "smallbank: not even the lowest ladder rate met the latency limit");

    // Wall-clock figures: medians over every timed throughput run, so a
    // burst of noise on the machine moves few samples.
    std::vector<double> tx_per_s;
    std::vector<double> submit_p50;
    std::vector<double> submit_p99;
    bool supported = true;
    for (size_t i = 1; i < sets.size(); ++i)
    {
      const auto& set = sets[i];
      bool same = set.size() == first.size();
      for (size_t k = 0; same && k < set.size(); ++k)
      {
        same = set[k].same_simulation(first[k]);
        tx_per_s.push_back(
          static_cast<double>(set[k].outcomes.committed) / set[k].wall_s);
        const auto p50 = supported_percentile(set[k].submit_us, 50);
        const auto p99 = supported_percentile(set[k].submit_us, 99);
        supported = supported && p99.has_value();
        submit_p50.push_back(p50.value_or(0));
        submit_p99.push_back(p99.value_or(0));
      }
      report.check(same, "smallbank: a repeated run changed simulated results");
    }
    const auto commit_p50 = supported_percentile(commit_ticks, 50);
    const auto commit_p99 = supported_percentile(commit_ticks, 99);
    report.check(
      supported && commit_p99.has_value(),
      "smallbank: too few samples for a p99 (needs 10 beyond it)");
    ctx.setup_s = median(setups);
    std::fprintf(
      stderr,
      "serve: %zu throughput runs of %llu ticks (%zu submit samples per "
      "run), %zu failovers, capacity %llu ops/ktick\n",
      tx_per_s.size(),
      static_cast<unsigned long long>(kThroughputTicks),
      first.front().submit_us.size(),
      unavailable.size(),
      static_cast<unsigned long long>(ops_per_ktick));

    if (primary)
    {
      report.attempted = total.attempted();
      report.failed = total.failed();
    }

    if (!ctx.trace)
    {
      report.metric("serve.tx_per_s", median(tx_per_s), "1/s");
      report.metric("serve.submit_p50_us", median(submit_p50), "us");
      report.metric("serve.submit_p99_us", median(submit_p99), "us");
      report.metric("serve.commit_p50_ticks", commit_p50.value_or(0), "ticks");
      report.metric("serve.commit_p99_ticks", commit_p99.value_or(0), "ticks");
      report.metric(
        "serve.capacity_ops_per_ktick",
        static_cast<double>(ops_per_ktick),
        "ops/ktick");
      report.metric("serve.unavailable_ticks", median(unavailable), "ticks");
      report.metric("serve.failed_frac", failed_fraction(total), "frac");
      return;
    }

    // --- per-layer metrics from the traced set's spans and counts --------
    const auto& traced = sets.back();
    if (primary)
    {
      report.metric(
        "tracing.overhead_frac",
        wall_of(traced) / wall_of(sets[1]) - 1.0,
        "frac");
    }
    const SpanRecorder& spans = ctx.spans;
    std::vector<double> sign_us =
      spans.self_times_us("session.submit_app+sign");
    const auto flush_sign = spans.self_times_us("session.flush+sign");
    sign_us.insert(sign_us.end(), flush_sign.begin(), flush_sign.end());
    report.metric("session.sign.us", median(sign_us), "us");
    report.metric(
      "session.sign.calls", static_cast<double>(sign_us.size()), "count");
    const auto median_span = [&](const char* metric, const char* span) {
      report.metric(metric, median(spans.durations_us(span)), "us");
    };
    median_span("session.submit_app.us", "session.submit_app");
    median_span("session.submit_ro.us", "session.submit_ro");
    median_span("session.poll.us", "session.poll");
    median_span("session.commit_ack.us", "session.commit_ack");
    median_span("app.execute.us", "app.execute");
    median_span("cluster.tick_all.us", "cluster.tick_all");
    median_span("cluster.drain.us", "cluster.drain");
    median_span("cluster.restart.us", "cluster.restart");

    uint64_t outstanding_max = 0;
    uint64_t committed = 0;
    uint64_t msgs = 0;
    uint64_t entries = 0;
    uint64_t signatures = 0;
    uint64_t elections = 0;
    uint64_t kv_versions = 0;
    std::vector<double> catchup;
    std::vector<double> cost_full;
    for (const ShardResult& s : traced)
    {
      outstanding_max = std::max(outstanding_max, s.outstanding_max);
      committed += s.outcomes.committed;
      msgs += s.msgs_sent;
      entries += s.entries;
      signatures += s.signatures;
      elections += s.elections;
      kv_versions = std::max(kv_versions, s.kv_versions);
      catchup.push_back(static_cast<double>(s.catchup_ticks));
      cost_full.push_back(s.wall_s / static_cast<double>(s.outcomes.committed));
    }
    const auto per_commit = [&](uint64_t n) {
      return static_cast<double>(n) / static_cast<double>(committed);
    };
    report.metric(
      "session.outstanding_max", static_cast<double>(outstanding_max), "count");
    report.metric(
      "crypto.merkle_root.us", traced.front().merkle_end_us, "us");
    report.metric(
      "crypto.merkle_root_at_1_8.us",
      traced.front().merkle_early_us,
      "us");
    report.metric("kv.versions", static_cast<double>(kv_versions), "count");
    report.metric("net.msgs_per_commit", per_commit(msgs), "count");
    report.metric("consensus.entries_per_commit", per_commit(entries), "count");
    report.metric(
      "consensus.signatures_per_commit", per_commit(signatures), "count");
    report.metric(
      "consensus.elections", static_cast<double>(elections), "count");
    report.metric("consensus.catchup_ticks", median(catchup), "ticks");

    // Linearity: wall time per committed transaction of a throughput run
    // over the same at 1/8 of its length (same shape, failover included).
    std::vector<double> cost_eighth;
    for (uint64_t k = 0; k < kThroughputRuns; ++k)
    {
      ShardSpec spec;
      spec.seed = derive_seed(seed, k);
      spec.ticks = kThroughputTicks / 8;
      spec.failover = true;
      const ShardResult r = run_shard(spec, off);
      cost_eighth.push_back(
        r.wall_s / static_cast<double>(r.outcomes.committed));
    }
    report.metric(
      "serve.cost_growth_8x",
      median(cost_full) / median(cost_eighth),
      "ratio");
  }
}
