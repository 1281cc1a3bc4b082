// vbench: runs one workload of the two-clock benchmark and prints its result
// as one JSON line (the last line of stdout).
//
//   vbench --workload cold_paint --seed 42 --seconds 40 --trace 0
//
// --seconds is required. --trace 1 reports the per-layer metrics instead of
// the end-to-end ones and writes the traced run's spans to
// .bench_out/<workload>-seed<N>-trace.json. Exit status 0 means every metric
// was measured; failed requests show in "failed" and "correct".

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/support/json.h"
#include "vbench/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: vbench --workload <name> --seconds S [--seed N] [--trace 0|1]\n"
               "workloads:");
  for (const std::string& name : vbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  vbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.seconds <= 0) {
    return Usage();
  }
  if (options.trace) {
    std::filesystem::create_directories(".bench_out");
    options.trace_path = ".bench_out/" + options.workload + "-seed" +
                         std::to_string(options.seed) + "-trace.json";
  }

  vbench::RunResult result = vbench::Run(options);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "vbench: %s\n", error.c_str());
  }
  if (result.internal_error || result.metrics.empty()) {
    std::fprintf(stderr, "vbench: run incomplete, no result\n");
    return 1;
  }
  vl::Json metrics = vl::Json::Object();
  for (const auto& [name, metric] : result.metrics) {
    vl::Json m = vl::Json::Object();
    m["value"] = vl::Json::Number(metric.value);
    m["unit"] = vl::Json::Str(metric.unit);
    metrics[name] = std::move(m);
  }
  vl::Json line = vl::Json::Object();
  line["correct"] = vl::Json::Bool(result.correct);
  line["attempted"] = vl::Json::Int(static_cast<int64_t>(result.attempted));
  line["failed"] = vl::Json::Int(static_cast<int64_t>(result.failed));
  line["metrics"] = std::move(metrics);
  std::printf("%s\n", line.Dump().c_str());
  return 0;
}
