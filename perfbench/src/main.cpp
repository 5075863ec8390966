// The repository benchmark's phase runner (README.md). Runs one phase of a
// workload, as its primary phase or as a probe, and prints, as the last
// line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics. run.py runs the three phases of a workload, each in
// a process of its own, and merges their results. Exits 1 when any
// correctness check fails and 2 on a bad command line.
//
//   scv_perfbench --phase serve|validate|check [--primary 0|1] [--seed N]
//                 [--seconds S] [--trace 0|1] [--spans-out PATH]
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "workloads.h"

namespace perfbench
{
  uint64_t derive_seed(uint64_t seed, uint64_t stream)
  {
    uint64_t z = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  double peak_rss_mb()
  {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
  }
}

namespace
{
  using namespace perfbench;

  constexpr const char* kUsage =
    "usage: scv_perfbench --phase serve|validate|check [--primary 0|1]\n"
    "                     [--seed N] [--seconds S] [--trace 0|1]\n"
    "                     [--spans-out PATH]\n"
    "  --primary 1     full size, repeated for --seconds (default: probe)\n"
    "  --seed N        input seed (default 1)\n"
    "  --seconds S     wall seconds a primary phase repeats for (default 10)\n"
    "  --trace 1       traced run: per-layer metrics and tracing overhead\n"
    "  --spans-out P   with --trace 1, write the recorded spans as JSONL\n";

  struct Args
  {
    std::string phase;
    bool primary = false;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out;
  };

  [[noreturn]] void usage_error(const std::string& why)
  {
    std::fprintf(stderr, "scv_perfbench: %s\n%s", why.c_str(), kUsage);
    std::exit(2);
  }

  uint64_t parse_u64(const std::string& flag, const std::string& text)
  {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
    {
      usage_error("bad value for " + flag + ": '" + text + "'");
    }
    return v;
  }

  /// Accepts "--flag value" and "--flag=value"; anything else, including
  /// an unknown flag or a missing value, is an error.
  Args parse_args(int argc, char** argv)
  {
    Args args;
    for (int i = 1; i < argc; ++i)
    {
      std::string flag = argv[i];
      if (flag == "--help" || flag == "-h")
      {
        std::fputs(kUsage, stdout);
        std::exit(0);
      }
      std::optional<std::string> value;
      if (const auto eq = flag.find('='); eq != std::string::npos)
      {
        value = flag.substr(eq + 1);
        flag = flag.substr(0, eq);
      }
      if (
        flag != "--phase" && flag != "--primary" && flag != "--seed" &&
        flag != "--seconds" && flag != "--trace" && flag != "--spans-out")
      {
        usage_error("unknown argument '" + flag + "'");
      }
      if (!value)
      {
        if (i + 1 >= argc)
        {
          usage_error("missing value for " + flag);
        }
        value = argv[++i];
      }
      if (flag == "--phase")
      {
        args.phase = *value;
      }
      else if (flag == "--seed")
      {
        args.seed = parse_u64(flag, *value);
      }
      else if (flag == "--seconds")
      {
        char* end = nullptr;
        args.seconds = std::strtod(value->c_str(), &end);
        if (value->empty() || *end != '\0' || !(args.seconds >= 0))
        {
          usage_error("bad value for --seconds: '" + *value + "'");
        }
      }
      else if (flag == "--trace" || flag == "--primary")
      {
        if (*value != "0" && *value != "1")
        {
          usage_error(flag + " takes 0 or 1");
        }
        (flag == "--trace" ? args.trace : args.primary) = *value == "1";
      }
      else
      {
        args.spans_out = *value;
      }
    }
    if (args.phase.empty())
    {
      usage_error("--phase is required");
    }
    return args;
  }

  const std::map<std::string, void (*)(bool, RunContext&)>& phases()
  {
    static const std::map<std::string, void (*)(bool, RunContext&)> table = {
      {"serve", &run_serve},
      {"validate", &run_validate},
      {"check", &run_check},
    };
    return table;
  }

  void print_result(const Report& report)
  {
    std::string out = "{\"correct\": ";
    out += report.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : report.metrics())
    {
      char value[64];
      std::snprintf(
        value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      out += first ? "" : ", ";
      out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
        m.unit + "\"}";
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }
}

int main(int argc, char** argv)
{
  const Args args = parse_args(argc, argv);
  const auto phase = phases().find(args.phase);
  if (phase == phases().end())
  {
    usage_error("unknown phase '" + args.phase + "'");
  }

  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.trace = args.trace;
  ctx.spans = SpanRecorder(args.trace);
  phase->second(args.primary, ctx);

  if (!args.trace)
  {
    ctx.report.metric("setup_s", ctx.setup_s, "s");
  }
  else if (!args.spans_out.empty())
  {
    ctx.report.check(
      ctx.spans.write_jsonl(args.spans_out),
      "could not write spans to " + args.spans_out);
  }
  for (const Metric& m : ctx.report.metrics())
  {
    ctx.report.check(std::isfinite(m.value), m.name + " is not finite");
  }
  print_result(ctx.report);
  return ctx.report.correct() ? 0 : 1;
}
