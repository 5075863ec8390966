// In-memory span recording for the traced run. The benchmark wraps its
// own calls into each layer (Session, Cluster, Ledger, Nemesis, trace
// binding, the checker); nothing inside src/ is instrumented.
//
// Spans are recorded on one thread (the serving and validation phases
// are driven from the main thread); the checker's per-state hooks run on
// every worker and are far too frequent to keep individually, so they
// accumulate per-thread totals instead (HookTimes in mc_workload.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench
{
  inline uint64_t now_ns()
  {
    return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch())
        .count());
  }

  class SpanRecorder
  {
  public:
    /// A disabled recorder records nothing and costs one branch per call.
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    [[nodiscard]] bool enabled() const
    {
      return enabled_;
    }

    /// Opens a span under the innermost open span; returns its handle.
    size_t open(const char* name, uint64_t request = 0);

    /// Closes the innermost open span, which must be `handle`.
    void close(size_t handle);

    /// Renames a recorded span once its call has shown what it did.
    void rename(size_t handle, const char* name)
    {
      spans_[handle].name = name;
    }

    /// Per-name durations (or self times) in microseconds.
    [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
    [[nodiscard]] std::vector<double> self_times_us(
      std::string_view name) const;

    /// Writes one JSON object per span (name, start/end ns relative to
    /// the first span, parent index or -1, request id). Returns false on
    /// an I/O error.
    bool write_jsonl(const std::string& path) const;

    /// RAII span; a no-op when the recorder is disabled.
    class Scope
    {
    public:
      Scope(SpanRecorder& recorder, const char* name, uint64_t request = 0) :
        recorder_(recorder),
        handle_(recorder.enabled_ ? recorder.open(name, request) : npos)
      {}
      ~Scope()
      {
        if (handle_ != npos)
        {
          recorder_.close(handle_);
        }
      }
      Scope(const Scope&) = delete;
      Scope& operator=(const Scope&) = delete;

    private:
      static constexpr size_t npos = static_cast<size_t>(-1);
      SpanRecorder& recorder_;
      size_t handle_;
    };

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
  };
}
