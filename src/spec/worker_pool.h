// Fork-join worker pool shared by the parallel engines.
//
// The parallel model checker (per exploration level), the parallel
// simulator (one seeded walk stream per worker) and the parallel trace
// validator (per trace line) all need the same primitive: run fn(w) for
// w in [0, size()) and wait for everyone. This type owns that pattern —
// including the two conventions every engine must agree on:
//   * requested == 0 means one worker per hardware thread;
//   * size() == 1 runs fn inline on the calling thread: one worker is the
//     same engine code with no thread spawned and no interleaving, so its
//     results are deterministic.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace scv::spec
{
  /// 0 -> one worker per hardware thread (at least one).
  inline unsigned resolve_worker_count(unsigned requested)
  {
    if (requested != 0)
    {
      return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  class WorkerPool
  {
  public:
    explicit WorkerPool(unsigned requested) :
      threads_(resolve_worker_count(requested))
    {}

    [[nodiscard]] unsigned size() const
    {
      return threads_;
    }

    /// Lock stripes for a table these workers share (store shards, memo
    /// stripes): 4 per worker, so two workers rarely hash to the same
    /// stripe, except that one worker gets exactly one, whose store IDs
    /// are then dense in insertion order. The tables round up to a power
    /// of two, so 4w - 3 gives the same count as 4w for every w > 1.
    [[nodiscard]] size_t stripe_count() const
    {
      return 4 * static_cast<size_t>(threads_) - 3;
    }

    /// Runs fn(w) for every worker index and joins before returning. The
    /// barrier is the point: after run() the caller may touch shared state
    /// (stores, local result slices) without synchronization.
    template <class F>
    void run(F&& fn) const
    {
      if (threads_ == 1)
      {
        fn(0u);
        return;
      }
      std::vector<std::thread> pool;
      pool.reserve(threads_);
      for (unsigned w = 0; w < threads_; ++w)
      {
        pool.emplace_back(fn, w);
      }
      for (auto& t : pool)
      {
        t.join();
      }
    }

  private:
    unsigned threads_;
  };
}
