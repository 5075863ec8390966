#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

namespace perfbench
{
  size_t SpanRecorder::open(const char* name, uint64_t request)
  {
    Span span;
    span.name = name;
    span.request = request;
    if (!open_.empty())
    {
      span.parent = open_.back();
    }
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void SpanRecorder::close(size_t handle)
  {
    spans_[handle].end_ns = now_ns();
    if (!open_.empty() && open_.back() == handle)
    {
      open_.pop_back();
    }
  }

  std::vector<double> SpanRecorder::durations_us(std::string_view name) const
  {
    std::vector<double> out;
    for (const Span& s : spans_)
    {
      if (s.name == name)
      {
        out.push_back(static_cast<double>(s.duration_ns()) / 1e3);
      }
    }
    return out;
  }

  std::vector<double> SpanRecorder::self_times_us(
    std::string_view name) const
  {
    const auto self = self_times_ns(spans_);
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
    {
      if (spans_[i].name == name)
      {
        out.push_back(static_cast<double>(self[i]) / 1e3);
      }
    }
    return out;
  }

  bool SpanRecorder::write_jsonl(const std::string& path) const
  {
    const std::unique_ptr<FILE, int (*)(FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
    {
      return false;
    }
    const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_)
    {
      std::fprintf(
        f.get(),
        "{\"name\":\"%.*s\",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
        ",\"parent\":%lld,\"request\":%" PRIu64 "}\n",
        static_cast<int>(s.name.size()),
        s.name.data(),
        s.start_ns - origin,
        s.end_ns - origin,
        s.parent ? static_cast<long long>(*s.parent) : -1LL,
        s.request);
    }
    return std::ferror(f.get()) == 0;
  }
}
