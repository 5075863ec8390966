// The benchmark's own arithmetic: percentiles, failure shares, latency
// limits and span self time. Kept free of the repository's libraries so
// tests/stats_test.cpp pins every rule on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace perfbench
{
  /// Nearest-rank percentile: the smallest sample such that at least p% of
  /// the samples are at or below it (rank = ceil(p/100 * n), 1-based).
  /// p in (0, 100]; nullopt when there are no samples.
  std::optional<double> nearest_rank(std::vector<double> samples, double p);

  /// 1-based nearest rank of percentile p among n samples (n >= 1).
  size_t rank_of(size_t n, double p);

  /// A percentile is reported only when at least ten samples lie beyond
  /// it: n - rank_of(n, p) >= 10. p50 needs 20 samples, p99 needs 1000.
  bool percentile_supported(size_t n, double p);

  /// Like nearest_rank, but nullopt unless percentile_supported().
  std::optional<double> supported_percentile(
    const std::vector<double>& samples, double p);

  /// The nearest-rank median of repeated measurements; 0 when empty.
  double median(const std::vector<double>& samples);

  /// Outcome counts of an open-loop serving run. Every arrival lands in
  /// exactly one bucket.
  struct Outcomes
  {
    uint64_t committed = 0;
    /// Executed but acknowledged INVALID (lost in a view change).
    uint64_t invalid = 0;
    /// No leader accepted the request.
    uint64_t rejected = 0;
    /// Executed but still unacknowledged when the run ended.
    uint64_t unresolved = 0;
    /// Served in full without a commit wait: read-only transactions and
    /// application-level refusals (e.g. a withdrawal that would overdraw).
    uint64_t served_other = 0;

    [[nodiscard]] uint64_t attempted() const
    {
      return committed + invalid + rejected + unresolved + served_other;
    }

    [[nodiscard]] uint64_t failed() const
    {
      return invalid + rejected + unresolved;
    }

    Outcomes& operator+=(const Outcomes& o)
    {
      committed += o.committed;
      invalid += o.invalid;
      rejected += o.rejected;
      unresolved += o.unresolved;
      served_other += o.served_other;
      return *this;
    }

    bool operator==(const Outcomes&) const = default;
  };

  /// failed / attempted; every arrival is in the denominator.
  double failed_fraction(const Outcomes& outcomes);

  /// Whether the p-th percentile of commit latency over every read-write
  /// arrival stays within `limit`. Latencies are those of committed
  /// requests; each failed request counts as an infinite latency, so it
  /// misses every limit. False when the sample cannot support p.
  bool meets_latency_limit(
    const std::vector<double>& committed_latencies,
    uint64_t failed,
    double p,
    double limit);

  /// A closed span of one layer call. `parent` indexes the enclosing span
  /// in the same vector (nullopt for roots); `request` groups the spans of
  /// one request (0 = none).
  struct Span
  {
    /// A string with static storage (the recorder keeps only the view).
    std::string_view name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    std::optional<size_t> parent;
    uint64_t request = 0;

    [[nodiscard]] uint64_t duration_ns() const
    {
      return end_ns - start_ns;
    }
  };

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its direct children (overlapping children count once,
  /// children are clipped to the parent's interval).
  std::vector<uint64_t> self_times_ns(const std::vector<Span>& spans);
}
