// The three phases every workload is built from. A workload runs its own
// phase at full size as the primary phase, repeated until --seconds have
// passed, and the other two at a smaller fixed probe size, so every run
// prints every end-to-end metric (README.md, "Workloads"). Each phase runs
// in a process of its own.
#pragma once

#include <cstdint>

#include "report.h"

namespace perfbench
{
  /// Each phase adds its metrics (end-to-end, or per-layer when tracing)
  /// and its checks to ctx.report. The primary phase runs at full size,
  /// repeats its unit of work until ctx.seconds have passed, and its
  /// counts are the run's attempted/failed; otherwise the phase runs at
  /// its probe size.
  void run_serve(bool primary, RunContext& ctx);
  void run_check(bool primary, RunContext& ctx);
  void run_validate(bool primary, RunContext& ctx);

  /// Mixes a run seed with a stream index into an independent seed.
  uint64_t derive_seed(uint64_t seed, uint64_t stream);

  /// Peak resident set size of this process so far, in MiB.
  double peak_rss_mb();
}
