// The two-clock benchmark's workloads: seeded, closed-loop clients of the
// public vserve API at serving defaults (see vbench/README.md).
//
// Every request is priced on both clocks: the transport time it was charged
// on its shard's virtual clock plus the host wall time from making the call
// until the result is in hand. An untraced run reports the end-to-end
// metrics; a traced run reports the per-layer split.

#ifndef VBENCH_WORKLOADS_H_
#define VBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbench {

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;  // one of WorkloadNames()
  uint64_t seed = 42;
  double seconds = 0;    // length of the measured loop; required unless
                         // max_iterations is set
  // false: one untraced run, end-to-end metrics. true: an untraced run and a
  // traced run of seconds/2 each, per-layer metrics.
  bool trace = false;
  // Kernels per run, set up and measured one after another: each gets an
  // equal share of `seconds` and its own kernel seed drawn from `seed`.
  // setup_s is the median of their set-up times. 0 = the workload's default.
  int environments = 0;
  // > 0: stop after this many passes/steps/rounds instead of on time, so
  // the tests get runs of a fixed length.
  int max_iterations = 0;
  // Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  // Deterministic counts for the tests: per-figure round trips and bytes on
  // each transport, summed virtual transport, pages hashed.
  std::map<std::string, uint64_t> counts;
  // Figures whose every paint/refresh completed and matched the oracle.
  std::vector<std::string> figures_ok;
  std::vector<std::string> errors;  // first few failure descriptions
  // The benchmark could not measure what it promises (a broken assumption
  // of its own, or a metric left without a sample).
  bool internal_error = false;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload end to end (set-up, measured loop, checks).
RunResult Run(const RunOptions& options);

}  // namespace vbench

#endif  // VBENCH_WORKLOADS_H_
