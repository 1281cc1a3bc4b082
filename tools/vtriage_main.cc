// vtriage: command-line front-end for the vcheck invariant engine.
//
//   vtriage [--json] [--rule <id|name>] [--list]
//   vtriage --figures
//   vtriage --scenario stackrot|dirtypipe [--json]
//
// Default mode boots a kernel + workload and runs one full sweep; the exit
// code is the number of violations (capped at 100). `--figures` is the CI
// gate: it steps the workload and re-sweeps after extracting each of the 21
// paper figures (all must be clean — zero false positives), then self-tests
// detection by running both CVE fault scenarios on fresh kernels (each must
// produce violations naming the corrupted address); exit 0 iff the corpus is
// clean AND both scenarios are detected. `--scenario` runs one fault scenario
// and sweeps — nonzero exit (the violation count) is the expected outcome.
//
// Every sweep must reconcile with Target::clock() — each rule body's charge
// plus the epoch sync must account for every nanosecond the sweep put on the
// virtual clock. A reconciliation failure exits 120 (mirroring vlint's
// zero-read exit code).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/dbg/kernel_introspect.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vkern/faults.h"
#include "src/vkern/kernel.h"
#include "src/vkern/workload.h"

namespace {

constexpr int kExitReconcile = 120;  // sweep charge failed to reconcile
constexpr int kExitUsage = 2;
constexpr int kMaxExitViolations = 100;

struct SweepOutcome {
  size_t violations = 0;
  bool reconciled = true;
  // True when any violation message names `needle` (the corrupted address).
  bool names_addr = false;
};

SweepOutcome RunSweep(analysis::CheckEngine* engine, const std::string& rule, bool json,
                      const char* tag, uint64_t needle = 0) {
  SweepOutcome outcome;
  analysis::CheckReport report;
  if (rule.empty()) {
    report = engine->RunAll();
  } else {
    vl::StatusOr<analysis::CheckReport> one = engine->RunOne(rule);
    if (!one.ok()) {
      std::fprintf(stderr, "vtriage: %s\n", one.status().ToString().c_str());
      outcome.violations = 1;
      return outcome;
    }
    report = std::move(one).value();
  }
  outcome.violations = report.violations();
  outcome.reconciled = report.reconciled;
  if (needle != 0) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(needle));
    for (const analysis::CheckRuleReport& r : report.rules) {
      for (const analysis::CheckViolation& v : r.violations) {
        if (v.diagnostic.message.find(hex) != std::string::npos || v.addr == needle) {
          outcome.names_addr = true;
        }
      }
    }
  }
  if (json) {
    vl::Json j = report.ToJson();
    j["tag"] = vl::Json::Str(tag);
    std::printf("%s\n", j.Dump(2).c_str());
  } else if (outcome.violations > 0 || !outcome.reconciled) {
    std::printf("--- %s ---\n%s", tag, report.RenderText().c_str());
  } else {
    std::printf("%s: clean (%zu rules, %llu reads, %llu batches, %llu ns, reconciled)\n", tag,
                report.rules_run(), static_cast<unsigned long long>(report.reads),
                static_cast<unsigned long long>(report.batches),
                static_cast<unsigned long long>(report.charged_ns + report.sync_ns +
                                                report.batch_ns));
  }
  return outcome;
}

struct Env {
  vkern::Kernel kernel;
  vkern::Workload workload;
  dbg::KernelDebugger debugger;
  analysis::CheckEngine engine;

  Env()
      : workload(&kernel),
        debugger((workload.Run(), &kernel), dbg::LatencyModel::GdbQemu()),
        engine(&debugger.types(), &debugger.symbols(), &debugger.session()) {
    vision::RegisterFigureSymbols(&debugger, &workload);
  }
};

int FinalExit(size_t violations, bool reconciled) {
  if (!reconciled) {
    std::fprintf(stderr, "vtriage: FATAL: sweep charge does not reconcile with "
                         "Target::clock()\n");
    return kExitReconcile;
  }
  return violations > static_cast<size_t>(kMaxExitViolations)
             ? kMaxExitViolations
             : static_cast<int>(violations);
}

int RunFigures(bool json) {
  Env env;
  size_t false_positives = 0;
  bool reconciled = true;
  for (const vision::FigureDef& fig : vision::AllFigures()) {
    env.workload.Step();
    viewcl::Interpreter interp(&env.debugger);
    auto graph = interp.RunProgram(fig.viewcl);
    if (!graph.ok()) {
      std::fprintf(stderr, "vtriage: figure %s failed to extract: %s\n", fig.id,
                   graph.status().ToString().c_str());
      return kExitUsage;
    }
    SweepOutcome outcome = RunSweep(&env.engine, "", json, fig.id);
    false_positives += outcome.violations;
    reconciled = reconciled && outcome.reconciled;
  }
  // Detection self-test: each CVE scenario on a fresh kernel must trip the
  // suite and name the corrupted node/slot.
  bool stackrot_detected = false;
  bool dirtypipe_detected = false;
  {
    Env cve;
    vkern::StackRotReport report =
        vkern::RunStackRotScenario(&cve.kernel, cve.workload.process(0));
    // The stale pointer survives only in CPU#1's register (the report) — feed
    // it to the engine the way a crash handler would.
    cve.engine.AddSuspect(report.fetched_addr);
    SweepOutcome outcome =
        RunSweep(&cve.engine, "", json, "scenario:stackrot", report.fetched_addr);
    stackrot_detected = outcome.violations > 0 && outcome.names_addr;
    reconciled = reconciled && outcome.reconciled;
  }
  {
    Env cve;
    vkern::DirtyPipeReport report =
        vkern::RunDirtyPipeScenario(&cve.kernel, cve.workload.process(0), true);
    // The arena is identity-mapped, so a host pointer IS the target address.
    uint64_t buf_addr =
        report.pipe != nullptr
            ? reinterpret_cast<uint64_t>(&report.pipe->bufs[report.buggy_buf_index])
            : 0;
    SweepOutcome outcome =
        RunSweep(&cve.engine, "", json, "scenario:dirtypipe", buf_addr);
    dirtypipe_detected = outcome.violations > 0 && outcome.names_addr;
    reconciled = reconciled && outcome.reconciled;
  }
  if (!json) {
    std::printf("vtriage: 21 figures swept, %zu false positive(s); "
                "stackrot %s, dirtypipe %s\n",
                false_positives, stackrot_detected ? "DETECTED" : "MISSED",
                dirtypipe_detected ? "DETECTED" : "MISSED");
  }
  if (!reconciled) {
    std::fprintf(stderr, "vtriage: FATAL: sweep charge does not reconcile with "
                         "Target::clock()\n");
    return kExitReconcile;
  }
  if (false_positives > 0 || !stackrot_detected || !dirtypipe_detected) {
    return 1;
  }
  return 0;
}

int RunScenario(const std::string& name, const std::string& rule, bool json) {
  Env env;
  uint64_t needle = 0;
  if (name == "stackrot") {
    vkern::StackRotReport report =
        vkern::RunStackRotScenario(&env.kernel, env.workload.process(0));
    env.engine.AddSuspect(report.fetched_addr);
    needle = report.fetched_addr;
  } else if (name == "dirtypipe") {
    vkern::RunDirtyPipeScenario(&env.kernel, env.workload.process(0), true);
  } else {
    std::fprintf(stderr, "vtriage: unknown scenario '%s' (stackrot|dirtypipe)\n",
                 name.c_str());
    return kExitUsage;
  }
  SweepOutcome outcome =
      RunSweep(&env.engine, rule, json, ("scenario:" + name).c_str(), needle);
  return FinalExit(outcome.violations, outcome.reconciled);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool figures = false;
  std::string rule;
  std::string scenario;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--figures") == 0) {
      figures = true;
    } else if (std::strcmp(argv[i], "--rule") == 0 && i + 1 < argc) {
      rule = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      for (const analysis::CheckRuleInfo& info : analysis::CheckEngine::Catalog()) {
        std::printf("%s  %-20s %s\n", info.id, info.name, info.description);
      }
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: vtriage [--json] [--rule <id|name>] [--list] "
                  "[--figures] [--scenario stackrot|dirtypipe]\n");
      return 0;
    } else {
      std::fprintf(stderr, "vtriage: unknown argument '%s'\n", argv[i]);
      return kExitUsage;
    }
  }
  if (figures) {
    return RunFigures(json);
  }
  if (!scenario.empty()) {
    return RunScenario(scenario, rule, json);
  }
  Env env;
  SweepOutcome outcome = RunSweep(&env.engine, rule, json, "sweep");
  return FinalExit(outcome.violations, outcome.reconciled);
}
