#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench
{
  size_t rank_of(size_t n, double p)
  {
    // The epsilon keeps p/100*n from rounding up past an exact rank
    // (e.g. 0.99 * 1000 = 990.0000000000001).
    const double exact = p / 100.0 * static_cast<double>(n);
    const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
    return std::clamp<size_t>(rank, 1, n);
  }

  std::optional<double> nearest_rank(std::vector<double> samples, double p)
  {
    if (samples.empty())
    {
      return std::nullopt;
    }
    const size_t rank = rank_of(samples.size(), p);
    std::nth_element(
      samples.begin(), samples.begin() + (rank - 1), samples.end());
    return samples[rank - 1];
  }

  bool percentile_supported(size_t n, double p)
  {
    return n > 0 && n - rank_of(n, p) >= 10;
  }

  std::optional<double> supported_percentile(
    const std::vector<double>& samples, double p)
  {
    if (!percentile_supported(samples.size(), p))
    {
      return std::nullopt;
    }
    return nearest_rank(samples, p);
  }

  double median(const std::vector<double>& samples)
  {
    return nearest_rank(samples, 50).value_or(0.0);
  }

  double failed_fraction(const Outcomes& outcomes)
  {
    const uint64_t attempted = outcomes.attempted();
    return attempted == 0 ?
      0.0 :
      static_cast<double>(outcomes.failed()) / static_cast<double>(attempted);
  }

  bool meets_latency_limit(
    const std::vector<double>& committed_latencies,
    uint64_t failed,
    double p,
    double limit)
  {
    std::vector<double> all = committed_latencies;
    all.insert(all.end(), failed, std::numeric_limits<double>::infinity());
    const auto value = supported_percentile(all, p);
    return value.has_value() && *value <= limit;
  }

  std::vector<uint64_t> self_times_ns(const std::vector<Span>& spans)
  {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
    for (const Span& s : spans)
    {
      if (s.parent && *s.parent < spans.size())
      {
        children[*s.parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::vector<uint64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
    {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      uint64_t covered = 0;
      uint64_t cursor = spans[i].start_ns;
      for (auto [start, end] : kids)
      {
        start = std::max(start, cursor);
        end = std::min(end, spans[i].end_ns);
        if (end > start)
        {
          covered += end - start;
          cursor = end;
        }
      }
      self[i] = spans[i].duration_ns() - covered;
    }
    return self;
  }
}
