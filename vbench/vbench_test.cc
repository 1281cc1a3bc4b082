// The benchmark's own tests: workloads are isolated and deterministic, and
// every workload runs clean on seeds nobody tuned on.
//
//   cmake -S vbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build --target vbench_test -j && .bench_build/vbench_test

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/vision/figures.h"
#include "vbench/workloads.h"

namespace vbench {
namespace {

// A short run of fixed length: one kernel, `iterations` passes/steps/rounds.
RunResult ShortRun(const std::string& workload, uint64_t seed, int iterations) {
  RunOptions options;
  options.workload = workload;
  options.seed = seed;
  options.environments = 1;
  options.max_iterations = iterations;
  return vbench::Run(options);
}

void ExpectClean(const RunResult& result, const std::string& what) {
  EXPECT_TRUE(result.correct) << what;
  EXPECT_FALSE(result.internal_error) << what;
  EXPECT_GT(result.attempted, 0u) << what;
  EXPECT_EQ(result.failed, 0u) << what;
  for (const std::string& error : result.errors) {
    ADD_FAILURE() << what << ": " << error;
  }
}

// Each workload boots its own kernels and shares nothing with the others, so
// the deterministic counts (round trips, bytes, virtual transport on both
// latency models, pages hashed) come out identical whether a workload runs
// first or after another one, and on every repetition.
TEST(VbenchTest, CountsAreIdenticalAcrossRepeatsAndOrder) {
  constexpr uint64_t kSeed = 42;
  RunResult cold_first = ShortRun("cold_paint", kSeed, 1);
  RunResult step_second = ShortRun("step_dashboard", kSeed, 4);
  RunResult step_first = ShortRun("step_dashboard", kSeed, 4);
  RunResult cold_second = ShortRun("cold_paint", kSeed, 1);
  for (const RunResult* result : {&cold_first, &step_second, &step_first, &cold_second}) {
    ExpectClean(*result, "determinism run");
  }

  ASSERT_FALSE(cold_first.counts.empty());
  EXPECT_EQ(cold_first.counts, cold_second.counts);
  ASSERT_FALSE(step_first.counts.empty());
  EXPECT_EQ(step_first.counts, step_second.counts);
  EXPECT_GT(step_first.counts.at("vkern.pages_scanned"), 0u);
  EXPECT_GT(step_first.counts.at("kgdb.transport_ns"), step_first.counts.at("gdb.transport_ns"));

  // The reads a cold paint makes do not depend on the latency model: the
  // GDB and KGDB passes agree figure by figure.
  for (const vision::FigureDef& figure : vision::AllFigures()) {
    const std::string id = figure.id;
    EXPECT_EQ(cold_first.counts.at("gdb.round_trips." + id),
              cold_first.counts.at("kgdb.round_trips." + id))
        << id;
    EXPECT_EQ(cold_first.counts.at("gdb.bytes." + id), cold_first.counts.at("kgdb.bytes." + id))
        << id;
    EXPECT_GT(cold_first.counts.at("gdb.round_trips." + id), 0u) << id;
  }
}

// A claim made on the default seed can be re-checked on seeds its author
// never tuned on: every workload runs clean on them, and the cold corpus
// paints all 21 figures on both models.
TEST(VbenchTest, HeldOutSeedsRunClean) {
  for (uint64_t seed : {1u, 7u, 1234u}) {
    const std::string at = " on seed " + std::to_string(seed);
    RunResult cold = ShortRun("cold_paint", seed, 1);
    ExpectClean(cold, "cold_paint" + at);
    EXPECT_EQ(cold.figures_ok.size(), vision::AllFigures().size()) << "cold_paint" + at;

    RunResult step = ShortRun("step_dashboard", seed, 2);
    ExpectClean(step, "step_dashboard" + at);
    EXPECT_EQ(step.figures_ok.size(), 6u) << "step_dashboard" + at;

    RunResult fleet = ShortRun("fleet_serve", seed, 2);
    ExpectClean(fleet, "fleet_serve" + at);
    EXPECT_EQ(std::set<std::string>(fleet.figures_ok.begin(), fleet.figures_ok.end()),
              (std::set<std::string>{"fig3_4", "fig16_2", "fig8_4", "socketconn"}))
        << "fleet_serve" + at;
  }
}

// Every metric is measured: an untraced run reports the end-to-end set and a
// traced run the per-layer set, each value finite.
TEST(VbenchTest, ReportsEveryMetric) {
  RunOptions options;
  options.workload = "step_dashboard";
  options.environments = 1;
  options.max_iterations = 2;
  RunResult untraced = vbench::Run(options);
  ExpectClean(untraced, "untraced");
  EXPECT_EQ(untraced.metrics.size(), 10u);
  EXPECT_EQ(untraced.metrics.at("success_ratio").value, 1.0);

  options.trace = true;
  RunResult traced = vbench::Run(options);
  ExpectClean(traced, "traced");
  EXPECT_EQ(traced.metrics.size(), 95u);
  EXPECT_EQ(traced.metrics.at("vkern.pages_hashed").value, 24576.0);
  EXPECT_EQ(traced.metrics.at("serve.reconciled").value, 1.0);
}

TEST(VbenchTest, UnknownWorkloadIsRefused) {
  RunOptions options;
  options.workload = "no_such_workload";
  RunResult result = vbench::Run(options);
  EXPECT_FALSE(result.correct);
  EXPECT_TRUE(result.metrics.empty());
}

}  // namespace
}  // namespace vbench
