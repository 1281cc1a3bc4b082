// Cold round-trip ceilings of the batched extraction walker, per figure.
//
// Measured on the bench kernel (BenchEnv: a 60-step workload plus two queued
// mm_percpu_wq works; bench_micro's GuardEnv and walker_test boot the same
// one) with a fresh debugger per figure: the default block cache and the
// GDB/QEMU latency model. Each ceiling is the round trips the retired
// prefetch planner (vplan) needed for the same cold paint. Five are tighter,
// where level batching was the point of replacing it (vplan: fig8_2 56,
// fig8_4 38, fig9_2 38, fig17_1 18, socketconn 265). bench_micro's walker
// guard and walker_test gate on them.

#ifndef BENCH_WALK_CEILINGS_H_
#define BENCH_WALK_CEILINGS_H_

#include <cstdint>
#include <string_view>

namespace vlbench {

struct WalkCeilingRow {
  const char* figure;
  uint64_t round_trips;
};

inline constexpr WalkCeilingRow kWalkCeilings[] = {
    {"fig3_4", 10},  {"fig3_6", 3},   {"fig4_5", 2},    {"fig6_1", 3},     {"fig7_1", 7},
    {"fig8_2", 26},  {"fig8_4", 25},  {"fig9_2", 8},    {"fig11_1", 2},    {"fig12_3", 4},
    {"fig13_3", 4},  {"fig14_3", 3},  {"fig15_1", 6},   {"fig16_2", 6},    {"fig17_1", 8},
    {"fig17_6", 4},  {"fig19_1", 2},  {"fig19_2", 3},   {"workqueue", 6},  {"proc2vfs", 6},
    {"socketconn", 24},
};

// The ceiling for `figure`; 0 (nothing passes) for a figure with no row.
inline uint64_t WalkCeiling(std::string_view figure) {
  for (const WalkCeilingRow& row : kWalkCeilings) {
    if (figure == row.figure) {
      return row.round_trips;
    }
  }
  return 0;
}

}  // namespace vlbench

#endif  // BENCH_WALK_CEILINGS_H_
