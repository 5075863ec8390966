#include "driver/nemesis.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "driver/scenario.h"
#include "trace/consensus_binding.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"

namespace scv::driver::nemesis
{
  namespace
  {
    constexpr NodeId kMaxSpecNode = 7; // spec validation supports ids 1..7
    constexpr const char* kViolationPrefix = "invariant violation";
    /// Cap on schedules the shrinker executes for one failure.
    constexpr uint64_t kMaxShrinkIterations = 400;
    /// Per-trace validation caps: candidate states and seconds (the fuzz
    /// Budget's remaining time binds first when it is shorter).
    constexpr uint64_t kValidateMaxStates = 200000;
    constexpr double kValidateSeconds = 10.0;

    [[nodiscard]] bool is_violation(const std::string& error)
    {
      return error.rfind(kViolationPrefix, 0) == 0;
    }

    [[nodiscard]] std::string join_ids(
      const std::vector<NodeId>& ids, char sep)
    {
      std::string out;
      for (const NodeId id : ids)
      {
        if (!out.empty())
        {
          out += sep;
        }
        out += std::to_string(id);
      }
      return out;
    }

    double now_seconds()
    {
      return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
    }
  }

  std::string FaultSchedule::to_scen() const
  {
    std::ostringstream os;
    os << "# nemesis schedule (seed " << seed << ")\n";
    os << "nodes";
    for (const NodeId id : initial_config)
    {
      os << ' ' << id;
    }
    os << '\n';
    os << "leader " << initial_leader << '\n';
    os << "seed " << seed << '\n';
    for (const std::string& op : ops)
    {
      os << op << '\n';
      os << "check\n";
    }
    return os.str();
  }

  std::string fault_kind(const std::string& op)
  {
    const size_t space = op.find(' ');
    const std::string head = op.substr(0, space);
    if (head == "try-submit" || head == "try-sign" || head == "submit" ||
        head == "sign")
    {
      return "workload";
    }
    if (head == "try-reconfigure" || head == "reconfigure" ||
        head == "add-node")
    {
      return "reconfigure";
    }
    if (head == "tick" || head == "step" || head == "drain")
    {
      return "tick";
    }
    if (head == "snapshot" || head == "compact" ||
        head == "join-from-snapshot")
    {
      return "snapshot";
    }
    if (head == "drop-link" || head == "drop-all" || head == "block")
    {
      return "drop";
    }
    return head; // crash, restart, partition, heal, loss, duplicate,
                 // timeout, skew map to themselves
  }

  spec::ExplorationStats NemesisReport::stats() const
  {
    spec::ExplorationStats out;
    out.distinct_states = runs;
    out.generated_states = trace_events;
    out.transitions = shrink_iterations;
    out.seconds = seconds;
    out.complete = complete;
    out.action_coverage = faults_by_kind;
    return out;
  }

  std::string NemesisReport::summary() const
  {
    std::ostringstream os;
    os << "nemesis: " << runs << " runs in " << seconds << "s ("
       << script_errors << " script errors), " << violations
       << " invariant violations, " << traces_validated
       << " traces validated (" << traces_rejected << " rejected, "
       << traces_inconclusive << " inconclusive)\n";
    os << "faults by kind:";
    for (const auto& [kind, count] : faults_by_kind)
    {
      os << ' ' << kind << '=' << count;
    }
    os << '\n';
    if (failing.has_value())
    {
      os << "first failure: " << failure_error << '\n';
      os << "  schedule: " << failing->ops.size() << " ops";
      if (shrunk.has_value())
      {
        os << ", shrunk to " << shrunk->ops.size() << " ops in "
           << shrink_iterations << " iterations";
      }
      os << '\n';
    }
    return os.str();
  }

  Nemesis::Nemesis(NemesisOptions options) : options_(std::move(options))
  {
    SCV_CHECK_MSG(
      !options_.initial_config.empty(), "nemesis needs an initial config");
    SCV_CHECK(options_.min_ops >= 1 && options_.min_ops <= options_.max_ops);
  }

  FaultSchedule Nemesis::generate(uint64_t run_index) const
  {
    // Stateless per-run derivation: schedule k is a pure function of
    // (seed, k), so runs can be regenerated without replaying the loop.
    uint64_t mix = options_.seed ^ (run_index + 1);
    const uint64_t run_seed = splitmix64(mix);
    Rng rng(run_seed);

    FaultSchedule s;
    s.seed = run_seed;
    s.initial_config = options_.initial_config;
    s.initial_leader = options_.initial_leader;

    std::vector<NodeId> known = s.initial_config;
    std::sort(known.begin(), known.end());
    std::vector<NodeId> crashed;
    NodeId next_id = known.back() + 1;
    s.max_node = known.back();
    bool partitioned = false;
    bool lossy = false;
    bool duplicating = false;
    size_t payload = 0;

    const auto is_crashed = [&](NodeId id) {
      return std::find(crashed.begin(), crashed.end(), id) != crashed.end();
    };
    const auto pick_live = [&]() -> NodeId {
      std::vector<NodeId> live;
      for (const NodeId id : known)
      {
        if (!is_crashed(id))
        {
          live.push_back(id);
        }
      }
      SCV_CHECK(!live.empty());
      return live[rng.below(live.size())];
    };
    const auto tick = [&](uint64_t lo, uint64_t hi) {
      s.ops.push_back("tick " + std::to_string(rng.between(lo, hi)));
    };

    enum Motif : size_t
    {
      Workload = 0,
      Crash,
      Restart,
      Partition,
      Heal,
      LinkDrop,
      LossDup,
      Timeout,
      Skew,
      RetryStorm,
      Grow,
      ReconfigSplit,
      SnapshotJoin,
      CompactCrash,
      kMotifs
    };

    const size_t n_ops = rng.between(options_.min_ops, options_.max_ops);
    while (s.ops.size() < n_ops)
    {
      std::vector<double> w(kMotifs, 0.0);
      w[Workload] = 3.0;
      // Crashes stay a strict minority of the known nodes so the cluster
      // can keep making progress (bug hunting needs activity, not
      // wedging).
      w[Crash] = crashed.size() + 1 <= known.size() / 2 ? 1.5 : 0.0;
      w[Restart] = crashed.empty() ? 0.0 : 1.5;
      w[Partition] = !partitioned && known.size() >= 2 ? 1.5 : 0.0;
      w[Heal] = partitioned || lossy || duplicating ? 1.0 : 0.0;
      w[LinkDrop] = 0.6;
      w[LossDup] = 0.8;
      w[Timeout] = 1.2;
      w[Skew] = 0.6;
      w[RetryStorm] = 0.6;
      w[Grow] = next_id <= kMaxSpecNode ? 0.8 : 0.0;
      w[ReconfigSplit] = next_id + 1 <= kMaxSpecNode ? 0.8 : 0.0;
      w[SnapshotJoin] = next_id <= kMaxSpecNode ? 0.8 : 0.0;
      w[CompactCrash] = 0.8;

      switch (static_cast<Motif>(rng.weighted_pick(w)))
      {
        case Workload:
        {
          s.ops.push_back("try-submit p" + std::to_string(payload++));
          if (rng.chance(0.7))
          {
            s.ops.push_back("try-sign");
          }
          tick(1, 8);
          break;
        }
        case Crash:
        {
          const NodeId victim = pick_live();
          crashed.push_back(victim);
          s.ops.push_back("crash " + std::to_string(victim));
          tick(1, 10);
          break;
        }
        case Restart:
        {
          const NodeId back = crashed[rng.below(crashed.size())];
          crashed.erase(
            std::find(crashed.begin(), crashed.end(), back));
          s.ops.push_back("restart " + std::to_string(back));
          tick(1, 10);
          break;
        }
        case Partition:
        {
          std::vector<NodeId> shuffled = known;
          rng.shuffle(shuffled);
          const size_t cut = rng.between(1, shuffled.size() - 1);
          std::vector<NodeId> a(shuffled.begin(), shuffled.begin() + cut);
          std::vector<NodeId> b(shuffled.begin() + cut, shuffled.end());
          s.ops.push_back(
            "partition " + join_ids(a, ' ') + " | " + join_ids(b, ' '));
          partitioned = true;
          tick(3, 20);
          if (rng.chance(0.6))
          {
            s.ops.push_back("heal");
            partitioned = false;
            tick(2, 10);
          }
          break;
        }
        case Heal:
        {
          s.ops.push_back("heal");
          partitioned = false;
          if (lossy)
          {
            s.ops.push_back("loss 0");
            lossy = false;
          }
          if (duplicating)
          {
            s.ops.push_back("duplicate 0");
            duplicating = false;
          }
          tick(2, 10);
          break;
        }
        case LinkDrop:
        {
          if (rng.chance(0.2))
          {
            s.ops.push_back("drop-all");
          }
          else
          {
            const NodeId from = pick_live();
            const NodeId to = pick_live();
            s.ops.push_back(
              "drop-link " + std::to_string(from) + " " +
              std::to_string(to));
          }
          tick(1, 6);
          break;
        }
        case LossDup:
        {
          static constexpr const char* probs[] = {"0.1", "0.2", "0.4"};
          const char* p = probs[rng.below(3)];
          if (rng.chance(0.6))
          {
            s.ops.push_back(std::string("loss ") + p);
            lossy = true;
          }
          else
          {
            s.ops.push_back(std::string("duplicate ") + p);
            duplicating = true;
          }
          tick(2, 12);
          break;
        }
        case Timeout:
        {
          s.ops.push_back("timeout " + std::to_string(pick_live()));
          tick(1, 6);
          break;
        }
        case Skew:
        {
          s.ops.push_back(
            "skew " + std::to_string(pick_live()) + " " +
            std::to_string(rng.between(5, 25)));
          tick(1, 4);
          break;
        }
        case RetryStorm:
        {
          // Client retry storm: the same logical request hammered at the
          // cluster back to back (duplicated submissions land as distinct
          // entries; the interesting part is the burst of AE traffic).
          const uint64_t burst = rng.between(3, 6);
          const std::string payload_id = std::to_string(payload++);
          for (uint64_t k = 0; k < burst; ++k)
          {
            s.ops.push_back("try-submit r" + payload_id);
          }
          s.ops.push_back("try-sign");
          tick(1, 4);
          break;
        }
        case Grow:
        {
          const NodeId joiner = next_id++;
          known.push_back(joiner);
          s.max_node = std::max(s.max_node, joiner);
          s.ops.push_back("add-node " + std::to_string(joiner));
          std::vector<NodeId> target;
          for (const NodeId id : known)
          {
            target.push_back(id);
          }
          s.ops.push_back("try-reconfigure " + join_ids(target, ','));
          s.ops.push_back("try-sign");
          tick(3, 12);
          break;
        }
        case ReconfigSplit:
        {
          // The Table-2 bug-1 shape: swap most of the configuration for
          // fresh joiners, keep the old nodes from hearing about it, then
          // force elections on both sides of a partition. With the
          // quorum-union tally the old leader can win with only new-node
          // votes while the old majority elects its own leader.
          const NodeId a = next_id++;
          const NodeId b = next_id++;
          const NodeId keep = !is_crashed(options_.initial_leader) &&
              std::find(known.begin(), known.end(), options_.initial_leader) !=
                known.end() ?
            options_.initial_leader :
            pick_live();
          s.ops.push_back("add-node " + std::to_string(a));
          s.ops.push_back("add-node " + std::to_string(b));
          s.ops.push_back(
            "try-reconfigure " + join_ids({keep, a, b}, ','));
          s.ops.push_back("try-sign");
          s.ops.push_back("drop-all");
          std::vector<NodeId> others;
          for (const NodeId id : known)
          {
            if (id != keep && !is_crashed(id))
            {
              others.push_back(id);
            }
          }
          known.push_back(a);
          known.push_back(b);
          s.max_node = std::max(s.max_node, b);
          if (!others.empty())
          {
            s.ops.push_back(
              "partition " + join_ids({keep, a, b}, ' ') + " | " +
              join_ids(others, ' '));
            partitioned = true;
            s.ops.push_back(
              "timeout " + std::to_string(others[rng.below(others.size())]));
          }
          s.ops.push_back("timeout " + std::to_string(keep));
          tick(8, 20);
          break;
        }
        case SnapshotJoin:
        {
          // Join-from-snapshot through the protocol: commit a prefix,
          // compact whoever leads (so stragglers are served
          // InstallSnapshot instead of AppendEntries), then add a fresh
          // node and reconfigure it in — its catch-up goes through the
          // snapshot, optionally racing a partition mid-install.
          s.ops.push_back("try-submit j" + std::to_string(payload++));
          s.ops.push_back("try-sign");
          tick(2, 8);
          s.ops.push_back("compact leader");
          const NodeId joiner = next_id++;
          known.push_back(joiner);
          s.max_node = std::max(s.max_node, joiner);
          s.ops.push_back("add-node " + std::to_string(joiner));
          s.ops.push_back("try-reconfigure " + join_ids(known, ','));
          s.ops.push_back("try-sign");
          if (!partitioned && rng.chance(0.5))
          {
            std::vector<NodeId> others;
            for (const NodeId id : known)
            {
              if (id != joiner)
              {
                others.push_back(id);
              }
            }
            s.ops.push_back(
              "partition " + std::to_string(joiner) + " | " +
              join_ids(others, ' '));
            tick(2, 10);
            s.ops.push_back("heal");
          }
          tick(4, 16);
          break;
        }
        case CompactCrash:
        {
          // Compact-then-crash-then-recover: commit a prefix, compact a
          // node's ledger, fail-stop it, and (usually) bring it back —
          // recovery must reconstruct the same state from snapshot +
          // suffix that a full-ledger replay would have produced.
          s.ops.push_back("try-submit k" + std::to_string(payload++));
          s.ops.push_back("try-sign");
          tick(2, 8);
          const NodeId victim = pick_live();
          s.ops.push_back("compact " + std::to_string(victim));
          if (crashed.size() + 1 <= known.size() / 2)
          {
            s.ops.push_back("crash " + std::to_string(victim));
            tick(1, 8);
            if (rng.chance(0.7))
            {
              s.ops.push_back("restart " + std::to_string(victim));
            }
            else
            {
              crashed.push_back(victim);
            }
          }
          tick(1, 8);
          break;
        }
        case kMotifs:
          SCV_CHECK(false);
      }
    }

    // Epilogue: bring everything back and settle, so recovery and
    // catch-up paths appear in every trace and runs end quiet.
    for (const NodeId id : crashed)
    {
      s.ops.push_back("restart " + std::to_string(id));
    }
    if (partitioned)
    {
      s.ops.push_back("heal");
    }
    if (lossy)
    {
      s.ops.push_back("loss 0");
    }
    if (duplicating)
    {
      s.ops.push_back("duplicate 0");
    }
    s.ops.push_back("tick " + std::to_string(rng.between(20, 40)));
    return s;
  }

  RunOutcome Nemesis::execute(const FaultSchedule& schedule) const
  {
    ScenarioRunner runner(options_.node_template);
    ScenarioResult result = runner.run_text(schedule.to_scen());
    RunOutcome out;
    if (!result.ok)
    {
      out.failed_line = result.failed_line;
      out.error = result.error;
      if (is_violation(result.error))
      {
        out.violation = true;
      }
      else
      {
        out.script_error = true;
      }
    }
    if (result.cluster)
    {
      out.trace = result.cluster->trace();
    }
    return out;
  }

  ShrinkOutcome Nemesis::shrink(
    const FaultSchedule& failing, const spec::Budget& budget) const
  {
    ShrinkOutcome out;
    out.schedule = failing;
    uint64_t iterations = 0;

    const auto exhausted = [&]() {
      return iterations >= kMaxShrinkIterations ||
        budget.time_exhausted();
    };
    const auto fails = [&](const FaultSchedule& candidate) {
      ++iterations;
      return execute(candidate).violation;
    };

    // ddmin over the op list: remove chunks at granularity n; on success
    // restart coarse, otherwise refine until chunks are single ops.
    FaultSchedule current = failing;
    size_t n = 2;
    while (current.ops.size() >= 2 && !exhausted())
    {
      const size_t chunk = (current.ops.size() + n - 1) / n;
      bool reduced = false;
      for (size_t start = 0; start < current.ops.size() && !exhausted();
           start += chunk)
      {
        FaultSchedule candidate = current;
        const size_t end = std::min(start + chunk, candidate.ops.size());
        candidate.ops.erase(
          candidate.ops.begin() + static_cast<ptrdiff_t>(start),
          candidate.ops.begin() + static_cast<ptrdiff_t>(end));
        if (candidate.ops.empty())
        {
          continue;
        }
        if (fails(candidate))
        {
          current = std::move(candidate);
          n = 2;
          reduced = true;
          break;
        }
      }
      if (!reduced)
      {
        if (chunk <= 1)
        {
          break; // minimal at single-op granularity
        }
        n = std::min(current.ops.size(), n * 2);
      }
    }

    // Trim pass: halve tick/step/skew counts while the schedule still
    // fails (ddmin removes whole ops; this shrinks within ops).
    for (size_t i = 0; i < current.ops.size() && !exhausted(); ++i)
    {
      std::vector<std::string> tokens = split(current.ops[i], ' ');
      const bool tick_like = tokens.size() == 2 &&
        (tokens[0] == "tick" || tokens[0] == "step");
      const bool skew_like = tokens.size() == 3 && tokens[0] == "skew";
      if (!tick_like && !skew_like)
      {
        continue;
      }
      const size_t count_pos = tick_like ? 1 : 2;
      uint64_t count = std::strtoull(tokens[count_pos].c_str(), nullptr, 10);
      while (count > 1 && !exhausted())
      {
        FaultSchedule candidate = current;
        tokens[count_pos] = std::to_string(count / 2);
        std::string line = tokens[0];
        for (size_t k = 1; k < tokens.size(); ++k)
        {
          line += ' ' + tokens[k];
        }
        candidate.ops[i] = line;
        if (!fails(candidate))
        {
          break;
        }
        current = std::move(candidate);
        count /= 2;
      }
    }

    out.schedule = std::move(current);
    out.iterations = iterations;
    return out;
  }

  int Nemesis::validate_trace(
    const FaultSchedule& schedule,
    const std::vector<trace::TraceEvent>& raw,
    double seconds) const
  {
    std::vector<uint64_t> config;
    for (const NodeId id : schedule.initial_config)
    {
      config.push_back(id);
    }
    // The spec carries the same BugFlags as the implementation under
    // test: a buggy implementation's trace must be a behavior of the
    // equally buggy spec (§7's one-line alignment discipline).
    const auto params = trace::validation_params(
      config,
      schedule.initial_leader,
      static_cast<uint8_t>(schedule.max_node),
      options_.node_template.bugs);
    trace::ConsensusValidationOptions vopts;
    // Schedules use loss/duplication faults; compose IsFault steps.
    vopts.fault_composition = true;
    vopts.search.mode = spec::SearchMode::Dfs;
    vopts.search.threads = options_.validate_threads;
    vopts.search.max_states = kValidateMaxStates;
    vopts.search.time_budget_seconds = seconds;
    const auto result = trace::validate_consensus_trace(raw, params, vopts);
    if (result.ok)
    {
      return 0;
    }
    return result.stats.complete ? 1 : 2;
  }

  NemesisReport Nemesis::fuzz(const spec::Budget& budget) const
  {
    NemesisReport report;
    const double started = now_seconds();

    for (uint64_t run = 0; run < options_.max_runs; ++run)
    {
      if (budget.exhausted(run))
      {
        break;
      }
      const FaultSchedule schedule = generate(run);
      report.runs++;
      for (const std::string& op : schedule.ops)
      {
        report.faults_by_kind[fault_kind(op)]++;
      }

      const RunOutcome outcome = execute(schedule);
      report.trace_events += outcome.trace.size();
      if (outcome.violation)
      {
        report.violations++;
        report.failing = schedule;
        report.failure_error = outcome.error;
        if (options_.shrink)
        {
          ShrinkOutcome shrunk = shrink(schedule, budget);
          report.shrink_iterations += shrunk.iterations;
          report.shrunk = std::move(shrunk.schedule);
        }
        break; // first failure ends the campaign: found, shrunk, report
      }
      if (outcome.script_error)
      {
        report.script_errors++;
        continue;
      }
      if (options_.validate_traces)
      {
        const double share =
          std::min(kValidateSeconds, budget.remaining_seconds());
        switch (validate_trace(schedule, outcome.trace, share))
        {
          case 0:
            report.traces_validated++;
            break;
          case 1:
            report.traces_validated++;
            report.traces_rejected++;
            if (!report.failing.has_value())
            {
              report.failing = schedule;
              report.failure_error = "trace rejected by the consensus spec";
            }
            break;
          default:
            report.traces_inconclusive++;
            break;
        }
      }
    }

    report.seconds = now_seconds() - started;
    report.complete =
      report.runs >= options_.max_runs || report.violations > 0;
    return report;
  }
}
