// What one benchmark run reports: named metrics with units, the run's
// attempted/failed counts, and every failed correctness check.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench
{
  struct Metric
  {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  class Report
  {
  public:
    void metric(std::string name, double value, std::string unit)
    {
      metrics_.push_back({std::move(name), value, std::move(unit)});
    }

    /// Records a failed correctness check (and says so on stderr) unless
    /// `ok` holds.
    void check(bool ok, const std::string& what)
    {
      if (!ok)
      {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        errors_.push_back(what);
      }
    }

    [[nodiscard]] bool correct() const
    {
      return errors_.empty();
    }

    [[nodiscard]] const std::vector<Metric>& metrics() const
    {
      return metrics_;
    }

    /// The primary phase's request counts (the JSON's attempted/failed).
    uint64_t attempted = 0;
    uint64_t failed = 0;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> errors_;
  };

  /// Everything a phase needs from the run.
  struct RunContext
  {
    uint64_t seed = 0;
    /// Wall seconds a primary phase keeps repeating its unit of work.
    double seconds = 0.0;
    /// The traced run: spans and per-layer metrics instead of end-to-end
    /// ones.
    bool trace = false;
    Report report;
    SpanRecorder spans{false};
    /// The phase's median set-up seconds.
    double setup_s = 0.0;
  };
}
