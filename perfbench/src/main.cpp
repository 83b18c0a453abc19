// rtpool_perfbench — one workload of the rtpool benchmark per process.
//
//   rtpool_perfbench --workload sweep|corpus|serve|admission --seed N
//                    --seconds S --trace 0|1 [--size full|tiny]
//                    [--corrupt serve|admission] [--spans PATH]
//                    [--scratch DIR] [--commit SHA]
//
// Prints host provenance, every metric as "metric <name> = <value> <unit>",
// the output digest, and as its last line one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status: 0 after a completed run (failed operations are reported, not
// fatal), 2 on a usage or set-up error (no JSON line is printed then).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rtpool_perfbench: %s\n"
               "usage: rtpool_perfbench --workload sweep|corpus|serve|admission "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--corrupt serve|admission] [--spans PATH] [--scratch DIR] "
               "[--commit SHA]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--size") {
        if (value != "full" && value != "tiny") usage("--size takes full or tiny");
        opt.size = value;
      } else if (key == "--corrupt") {
        if (value != "serve" && value != "admission")
          usage("--corrupt takes serve or admission");
        opt.corrupt = value;
      } else if (key == "--spans") {
        opt.spans_path = value;
      } else if (key == "--scratch") {
        opt.scratch_dir = value;
      } else if (key == "--commit") {
        commit = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  opt.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::printf("host: rtpool build_type=%s compiler=\"%s\" nproc=%d commit=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, opt.threads, commit.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d size=%s%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.size.c_str(),
              opt.corrupt.empty() ? "" : " corrupt=", opt.corrupt.c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    if (opt.workload == "sweep") out = run_sweep(opt);
    else if (opt.workload == "corpus") out = run_corpus(opt);
    else if (opt.workload == "serve") out = run_serve(opt);
    else if (opt.workload == "admission") out = run_admission(opt);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtpool_perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }

  std::printf("run_count: %llu timed batches\n", static_cast<unsigned long long>(out.runs));
  for (const std::string& line : out.notes) std::printf("note: %s\n", line.c_str());
  for (const Metric& m : out.metrics)
    std::printf("metric %-30s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  std::printf("metric %-30s = %.6g %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("digest: %s\n", out.digest.c_str());

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
