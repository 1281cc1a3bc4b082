// vcheck invariant-engine tests: one targeted corruption per catalog rule
// (mutate kernel state host-side, assert exactly that rule fires with the
// right address), clean-corpus zero findings across the 21-figure corpus,
// charge reconciliation against Target::clock(), sweeps of one engine across
// kernel steps on a delta-refresh session, batched sweeps (the rules' misses
// deferred and fetched in one batch), and the Server::Sweep /
// `vctrl check` fleet paths with their per-shard sweep stats. Every fixture
// sweep also runs on an uncached session and must find exactly the same.
//
// The arena is identity-mapped (a host pointer IS the target address), so
// every expected violation address is computed directly from the vkern
// pointers that were corrupted. Every host-side mutation is followed by
// Kernel::BumpGeneration() per the mutation contract in kernel.h.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/check.h"
#include "src/dbg/kernel_introspect.h"
#include "src/dbg/read_session.h"
#include "src/serve/server.h"
#include "src/serve/shell.h"
#include "src/viewcl/interp.h"
#include "src/vision/figures.h"
#include "src/vkern/faults.h"
#include "src/vkern/kernel.h"
#include "src/vkern/kstructs.h"
#include "src/vkern/list.h"
#include "src/vkern/rcu.h"
#include "src/vkern/slab.h"
#include "src/vkern/workload.h"
#include "tests/test_util.h"

namespace {

using analysis::CheckEngine;
using analysis::CheckReport;
using analysis::CheckRuleReport;
using analysis::CheckViolation;

void NoopTimerFn(vkern::timer_list*) {}

const CheckRuleReport* FindRuleReport(const CheckReport& report, const std::string& id) {
  for (const CheckRuleReport& r : report.rules) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

// True if rule `id` recorded a violation at exactly `addr`.
bool FiredAt(const CheckReport& report, const std::string& id, uint64_t addr) {
  const CheckRuleReport* r = FindRuleReport(report, id);
  if (r == nullptr) return false;
  for (const CheckViolation& v : r->violations) {
    if (v.addr == addr) return true;
  }
  return false;
}

// IDs of every rule that recorded at least one violation.
std::vector<std::string> FiredRules(const CheckReport& report) {
  std::vector<std::string> ids;
  for (const CheckRuleReport& r : report.rules) {
    if (!r.violations.empty()) ids.push_back(r.id);
  }
  return ids;
}

std::string AllMessages(const CheckReport& report, const std::string& id) {
  std::string out;
  const CheckRuleReport* r = FindRuleReport(report, id);
  if (r == nullptr) return out;
  for (const CheckViolation& v : r->violations) {
    out += v.diagnostic.message;
    out.push_back('\n');
  }
  return out;
}

// What a sweep found, whatever its cache and charges: every finding's rule
// ID, address, message and trail, and every rule's explain tree.
std::string Findings(const CheckReport& report) {
  std::string out;
  for (const CheckRuleReport& r : report.rules) {
    out += r.explain.ToJson().Dump() + "\n";
    for (const CheckViolation& v : r.violations) {
      out += v.diagnostic.rule + " " + std::to_string(v.addr) + " " + v.diagnostic.message;
      for (const std::string& hop : v.trail) {
        out += " > " + hop;
      }
      out.push_back('\n');
    }
  }
  return out;
}

// Every sweep of a test runs twice over the same kernel: on a session with
// the fixture's cache(), where the rules defer their misses to a batch, and
// on an uncached one (block_bytes = 0), which reads as the raw transport
// does. Both must find the same.
class CheckTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    WorkloadKernelTest::SetUp();
    raw_debugger_ = MakeDebugger(dbg::CacheConfig::Disabled());
    raw_engine_ = MakeEngine(raw_debugger_.get());
    debugger_ = MakeDebugger(cache());
    engine_ = MakeEngine(debugger_.get());
  }

  virtual dbg::CacheConfig cache() const { return dbg::CacheConfig{}; }

  std::unique_ptr<dbg::KernelDebugger> MakeDebugger(const dbg::CacheConfig& config) {
    auto debugger = std::make_unique<dbg::KernelDebugger>(kernel_.get(),
                                                          dbg::LatencyModel::GdbQemu(), config);
    vision::RegisterFigureSymbols(debugger.get(), workload_.get());
    return debugger;
  }

  static std::unique_ptr<CheckEngine> MakeEngine(dbg::KernelDebugger* debugger) {
    return std::make_unique<CheckEngine>(&debugger->types(), &debugger->symbols(),
                                         &debugger->session());
  }

  // Sweeps every rule (or `rule`) on both sessions; returns the cached
  // session's report.
  CheckReport Sweep(std::string_view rule = "") {
    CheckReport report = rule.empty() ? engine_->RunAll() : *engine_->RunOne(rule);
    CheckReport raw = rule.empty() ? raw_engine_->RunAll() : *raw_engine_->RunOne(rule);
    EXPECT_TRUE(report.reconciled);
    EXPECT_TRUE(raw.reconciled);
    EXPECT_EQ(raw.batches, 0u);
    EXPECT_EQ(Findings(report), Findings(raw)) << report.RenderText() << "--- raw ---\n"
                                               << raw.RenderText();
    return report;
  }

  void AddSuspect(uint64_t addr) {
    engine_->AddSuspect(addr);
    raw_engine_->AddSuspect(addr);
  }

  // Sweep and require exactly one rule to be at fault.
  CheckReport SweepExpecting(const std::string& id, uint64_t addr) {
    CheckReport report = Sweep();
    EXPECT_TRUE(FiredAt(report, id, addr))
        << id << " did not fire at the expected address:\n"
        << report.RenderText();
    return report;
  }

  std::unique_ptr<dbg::KernelDebugger> raw_debugger_;
  std::unique_ptr<CheckEngine> raw_engine_;
  std::unique_ptr<dbg::KernelDebugger> debugger_;
  std::unique_ptr<CheckEngine> engine_;
};

// Same fixture over a delta-refresh session: one engine sweeps across kernel
// steps, as a served shard's sweeps do, and each sweep after a step reads the
// blocks the refresh re-read.
class IncrementalCheckTest : public CheckTest {
 protected:
  dbg::CacheConfig cache() const override { return dbg::CacheConfig::Incremental(); }
};

// ---------------------------------------------------------------------------
// Catalog + clean sweeps
// ---------------------------------------------------------------------------

TEST(CheckCatalogTest, CatalogIsStableAndSearchable) {
  const std::vector<analysis::CheckRuleInfo>& catalog = CheckEngine::Catalog();
  ASSERT_GE(catalog.size(), 10u);
  EXPECT_STREQ(catalog.front().id, "VC001");
  const analysis::CheckRuleInfo* by_id = CheckEngine::FindRule("VC004");
  ASSERT_NE(by_id, nullptr);
  EXPECT_STREQ(by_id->name, "maple-pivots");
  const analysis::CheckRuleInfo* by_name = CheckEngine::FindRule("slab-poison");
  ASSERT_NE(by_name, nullptr);
  EXPECT_STREQ(by_name->id, "VC006");
  EXPECT_EQ(CheckEngine::FindRule("no-such-rule"), nullptr);
}

TEST_F(CheckTest, CleanSweepHasZeroFindingsAndReconciles) {
  CheckReport report = engine_->RunAll();
  EXPECT_EQ(report.violations(), 0u) << report.RenderText();
  EXPECT_EQ(report.rules_run(), CheckEngine::Catalog().size());
  EXPECT_TRUE(report.reconciled);
  // On a cold cache the rules defer their misses: the level's batch pays for
  // the blocks, the rules that stopped read them again without deferring,
  // and what that rerun still misses the rules pay themselves.
  EXPECT_GT(report.batches, 0u);
  EXPECT_GT(report.batch_ns, 0u);
  EXPECT_GT(report.reads, 0u);
  EXPECT_GT(report.charged_ns, 0u);
  EXPECT_EQ(report.clock_delta_ns, report.charged_ns + report.sync_ns + report.batch_ns);
  // A warm re-sweep still reconciles (cache hits charge nothing, but the
  // attribution equation must hold regardless).
  CheckReport warm = engine_->RunAll();
  EXPECT_TRUE(warm.reconciled);
  EXPECT_EQ(warm.violations(), 0u);
}

TEST_F(CheckTest, RunOneRejectsUnknownRules) {
  vl::StatusOr<CheckReport> report = engine_->RunOne("VC999");
  EXPECT_FALSE(report.ok());
  CheckReport ok = Sweep("rcu-cblist");
  EXPECT_EQ(ok.rules.size(), 1u);
  EXPECT_EQ(ok.rules[0].id, "VC008");
}

// The CI corpus gate in miniature: extract every paper figure, sweeping the
// full catalog after each one — zero false positives, always reconciled.
TEST_F(CheckTest, CleanCorpusAcrossAllFigures) {
  for (const vision::FigureDef& fig : vision::AllFigures()) {
    workload_->Step();
    viewcl::Interpreter interp(debugger_.get());
    auto graph = interp.RunProgram(fig.viewcl);
    ASSERT_TRUE(graph.ok()) << fig.id << ": " << graph.status().ToString();
    CheckReport report = Sweep();
    EXPECT_EQ(report.violations(), 0u) << fig.id << ":\n" << report.RenderText();
  }
}

// ---------------------------------------------------------------------------
// One targeted corruption per rule
// ---------------------------------------------------------------------------

TEST_F(CheckTest, Vc001ListBacklinkCorruptionFires) {
  vkern::workqueue_struct* wq = kernel_->mm_percpu_wq();
  ASSERT_NE(wq, nullptr);
  wq->list.prev = &wq->list;  // break the back-link into the workqueues ring
  kernel_->BumpGeneration();
  uint64_t addr = reinterpret_cast<uint64_t>(&wq->list);
  CheckReport report = SweepExpecting("VC001", addr);
  // VC011 walks the same global workqueues list, so it may echo the broken
  // link; nothing else may fire.
  for (const std::string& id : FiredRules(report)) {
    EXPECT_TRUE(id == "VC001" || id == "VC011") << id << " fired unexpectedly";
  }
}

TEST_F(CheckTest, Vc002CachedLeftmostCorruptionFires) {
  // Three fresh runnable tasks guarantee a multi-node CFS tree on CPU 0.
  for (const char* name : {"chk-a", "chk-b", "chk-c"}) {
    ASSERT_NE(kernel_->procs().CreateTask(name, workload_->process(0), 0, 0), nullptr);
  }
  vkern::cfs_rq* cfs = &kernel_->runqueues()[0].cfs;
  vkern::rb_node* root = cfs->tasks_timeline.rb_root_.rb_node_;
  ASSERT_NE(root, nullptr);
  ASSERT_NE(root->rb_left, nullptr);  // root is not the leftmost node
  cfs->tasks_timeline.rb_leftmost = root;
  kernel_->BumpGeneration();
  uint64_t addr = reinterpret_cast<uint64_t>(&cfs->tasks_timeline.rb_leftmost);
  CheckReport report = SweepExpecting("VC002", addr);
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC002"});
}

TEST_F(CheckTest, Vc003RedRootCorruptionFires) {
  for (const char* name : {"chk-a", "chk-b", "chk-c"}) {
    ASSERT_NE(kernel_->procs().CreateTask(name, workload_->process(0), 0, 0), nullptr);
  }
  vkern::rb_node* root = kernel_->runqueues()[0].cfs.tasks_timeline.rb_root_.rb_node_;
  ASSERT_NE(root, nullptr);
  root->__rb_parent_color &= ~1ull;  // clear the colour bit: a red root
  kernel_->BumpGeneration();
  CheckReport report = SweepExpecting("VC003", reinterpret_cast<uint64_t>(root));
  EXPECT_NE(AllMessages(report, "VC003").find("root is red"), std::string::npos);
  // Ordering is untouched.
  const CheckRuleReport* vc002 = FindRuleReport(report, "VC002");
  ASSERT_NE(vc002, nullptr);
  EXPECT_TRUE(vc002->violations.empty());
}

// Finds a maple node with at least three live, strictly increasing pivots:
// pivot[1] is then provably inside the checked data range (pivot[2] bounds it
// away from the subtree max), so collapsing it breaks monotonicity.
uint64_t FindCorruptibleMapleNode(uintptr_t enode) {
  uint64_t node = enode & ~0xffull;
  uint32_t type = static_cast<uint32_t>((enode >> 3) & 0xf);
  if (type < 1 || type > 3) return 0;
  uint32_t n_pivots = type == 3 ? 9 : 15;
  // pivot[] starts right after the parent pointer in both node layouts.
  const uint64_t* pivots = reinterpret_cast<const uint64_t*>(node + 8);
  if (pivots[0] != 0 && pivots[1] > pivots[0] && pivots[2] > pivots[1]) {
    return node;
  }
  if (type == 1) return 0;  // leaf: nowhere further to descend
  uint64_t slot_base = node + 8 + 8ull * n_pivots;
  for (uint32_t i = 0; i <= n_pivots; ++i) {
    if (i > 0 && i <= n_pivots && pivots[i - 1] == 0) break;  // past the data end
    uintptr_t child = *reinterpret_cast<const uintptr_t*>(slot_base + 8ull * i);
    if (child == 0 || (child & 2) == 0) continue;
    uint64_t hit = FindCorruptibleMapleNode(child);
    if (hit != 0) return hit;
  }
  return 0;
}

TEST_F(CheckTest, Vc004MaplePivotCorruptionFires) {
  uint64_t node = 0;
  for (int i = 0; i < workload_->nr_processes() && node == 0; ++i) {
    vkern::mm_struct* mm = workload_->process(i)->mm;
    ASSERT_NE(mm, nullptr);
    uintptr_t enode = reinterpret_cast<uintptr_t>(mm->mm_mt.ma_root);
    if ((enode & 2u) == 0) continue;  // direct entry, no node to walk
    node = FindCorruptibleMapleNode(enode);
  }
  ASSERT_NE(node, 0u) << "no VMA tree node with three live pivots";
  uint64_t* pivots = reinterpret_cast<uint64_t*>(node + 8);
  pivots[1] = pivots[0];  // non-monotonic: pivot[1] < pivot[0] + 1
  kernel_->BumpGeneration();
  uint64_t addr = node + 8 + 8;  // &pivot[1]
  CheckReport report = SweepExpecting("VC004", addr);
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC004"});
}

TEST_F(CheckTest, Vc005FreelistEscapeCorruptionFires) {
  vkern::kmem_cache* cache = kernel_->slabs().FindCache("maple_node");
  ASSERT_NE(cache, nullptr);
  void* obj = kernel_->slabs().Alloc(cache);
  ASSERT_NE(obj, nullptr);
  vkern::SlabAllocator::Free(cache, obj);
  // The freed object's first word is the embedded next-free index; point it
  // out of the slab.
  *reinterpret_cast<uint32_t*>(obj) = 0xdead;
  kernel_->BumpGeneration();
  // Slab blocks are naturally aligned; the descriptor sits at the block head.
  uint64_t block = static_cast<uint64_t>(cache->pages_per_slab) * 4096;
  uint64_t slab_addr = reinterpret_cast<uint64_t>(obj) & ~(block - 1);
  CheckReport report = SweepExpecting("VC005", slab_addr);
  EXPECT_NE(AllMessages(report, "VC005").find("escapes"), std::string::npos);
}

TEST_F(CheckTest, Vc006PoisonClobberCorruptionFires) {
  vkern::kmem_cache* cache = kernel_->slabs().FindCache("maple_node");
  ASSERT_NE(cache, nullptr);
  void* obj = kernel_->slabs().Alloc(cache);
  ASSERT_NE(obj, nullptr);
  vkern::SlabAllocator::Free(cache, obj);
  // A write-after-free beyond the freelist word clobbers the 0x6b poison.
  reinterpret_cast<unsigned char*>(obj)[8] = 0xaa;
  kernel_->BumpGeneration();
  uint64_t addr = reinterpret_cast<uint64_t>(obj) + 8;
  CheckReport report = SweepExpecting("VC006", addr);
  EXPECT_NE(AllMessages(report, "VC006").find("poison"), std::string::npos);
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC006"});
}

TEST_F(CheckTest, Vc006SuspectPointerNamesUseAfterFree) {
  vkern::kmem_cache* cache = kernel_->slabs().FindCache("maple_node");
  ASSERT_NE(cache, nullptr);
  void* obj = kernel_->slabs().Alloc(cache);
  ASSERT_NE(obj, nullptr);
  vkern::SlabAllocator::Free(cache, obj);
  kernel_->BumpGeneration();
  // An interior pointer a crashed reader still holds must resolve to the
  // freed object (the StackRot shape: heap consistent, the danger is the
  // stale register).
  AddSuspect(reinterpret_cast<uint64_t>(obj) + 16);
  CheckReport report = SweepExpecting("VC006", reinterpret_cast<uint64_t>(obj));
  EXPECT_NE(AllMessages(report, "VC006").find("use-after-free"), std::string::npos);
}

TEST_F(CheckTest, Vc006SuspectOnLiveObjectStaysQuiet) {
  vkern::kmem_cache* cache = kernel_->slabs().FindCache("maple_node");
  ASSERT_NE(cache, nullptr);
  void* obj = kernel_->slabs().Alloc(cache);
  ASSERT_NE(obj, nullptr);
  kernel_->BumpGeneration();
  AddSuspect(reinterpret_cast<uint64_t>(obj));
  CheckReport report = Sweep("VC006");
  EXPECT_EQ(report.violations(), 0u) << report.RenderText();
}

// The StackRot shape end to end: the maple node freed through call_rcu while
// a reader kept its pointer is named through the reader's suspect pointer.
TEST_F(CheckTest, Vc006StackRotScenarioNamesTheFreedNode) {
  vkern::StackRotReport fault = vkern::RunStackRotScenario(kernel_.get(), workload_->process(0));
  ASSERT_TRUE(fault.uaf_detected);
  AddSuspect(fault.fetched_addr);
  CheckReport report = SweepExpecting("VC006", fault.fetched_addr);
  EXPECT_NE(AllMessages(report, "VC006").find("use-after-free"), std::string::npos);
}

TEST_F(CheckTest, Vc007UnlinkedTaskCorruptionFires) {
  vkern::task_struct* task = workload_->process(2);
  ASSERT_NE(task, nullptr);
  // Remove the task from its parent's children list: still on the global
  // task list, no longer reachable through the fork tree.
  vkern::list_del_init(&task->sibling);
  kernel_->BumpGeneration();
  CheckReport report = SweepExpecting("VC007", reinterpret_cast<uint64_t>(task));
  EXPECT_NE(AllMessages(report, "VC007").find("unreachable"), std::string::npos);
  // Its thread-group members may also drop out of reach, but nothing else.
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC007"});
}

TEST_F(CheckTest, Vc008CblistLenCorruptionFires) {
  vkern::rcu_data* rdp = &kernel_->rcu_data_array()[0];
  rdp->cblist_len += 3;
  kernel_->BumpGeneration();
  uint64_t addr = reinterpret_cast<uint64_t>(&rdp->cblist_len);
  CheckReport report = SweepExpecting("VC008", addr);
  EXPECT_NE(AllMessages(report, "VC008").find("cblist_len"), std::string::npos);
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC008"});
}

TEST_F(CheckTest, Vc009DirtyPipeScenarioFires) {
  vkern::DirtyPipeReport fault =
      vkern::RunDirtyPipeScenario(kernel_.get(), workload_->process(0), /*vulnerable=*/true);
  ASSERT_NE(fault.pipe, nullptr);
  ASSERT_TRUE(fault.can_merge_leaked);
  uint64_t addr = reinterpret_cast<uint64_t>(&fault.pipe->bufs[fault.buggy_buf_index]);
  CheckReport report = SweepExpecting("VC009", addr);
  EXPECT_NE(AllMessages(report, "VC009").find("CAN_MERGE"), std::string::npos);
}

TEST_F(CheckTest, Vc009PatchedPipeStaysQuiet) {
  vkern::DirtyPipeReport fault =
      vkern::RunDirtyPipeScenario(kernel_.get(), workload_->process(0), /*vulnerable=*/false);
  ASSERT_NE(fault.pipe, nullptr);
  EXPECT_FALSE(fault.can_merge_leaked);
  CheckReport report = Sweep("VC009");
  EXPECT_EQ(report.violations(), 0u) << report.RenderText();
}

TEST_F(CheckTest, Vc010TimerPprevCorruptionFires) {
  vkern::timer_list* timer = kernel_->timers().AllocTimer();
  ASSERT_NE(timer, nullptr);
  kernel_->timers().AddTimer(0, timer, kernel_->jiffies() + 100, &NoopTimerFn);
  timer->entry.pprev = reinterpret_cast<vkern::hlist_node**>(&timer->expires);
  kernel_->BumpGeneration();
  CheckReport report = SweepExpecting("VC010", reinterpret_cast<uint64_t>(&timer->entry));
  EXPECT_NE(AllMessages(report, "VC010").find("pprev"), std::string::npos);
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC010"});
}

TEST_F(CheckTest, Vc011PwqBackrefCorruptionFires) {
  vkern::workqueue_struct* wq = kernel_->mm_percpu_wq();
  ASSERT_NE(wq, nullptr);
  ASSERT_NE(wq->pwqs.next, &wq->pwqs);
  vkern::pool_workqueue* pwq =
      VKERN_CONTAINER_OF(wq->pwqs.next, vkern::pool_workqueue, pwqs_node);
  ASSERT_EQ(pwq->wq, wq);
  pwq->wq = kernel_->events_wq();  // back-pointer hijacked to another workqueue
  kernel_->BumpGeneration();
  CheckReport report = SweepExpecting("VC011", reinterpret_cast<uint64_t>(pwq));
  EXPECT_EQ(FiredRules(report), std::vector<std::string>{"VC011"});
}

// ---------------------------------------------------------------------------
// Sweeps across kernel steps
// ---------------------------------------------------------------------------

TEST_F(IncrementalCheckTest, RepairedCorruptionClearsOnTheNextSweep) {
  CheckReport clean = Sweep();
  ASSERT_EQ(clean.violations(), 0u) << clean.RenderText();
  vkern::rcu_data* rdp = &kernel_->rcu_data_array()[0];
  rdp->cblist_len += 3;
  kernel_->BumpGeneration();
  CheckReport corrupt = Sweep();
  EXPECT_TRUE(FiredAt(corrupt, "VC008", reinterpret_cast<uint64_t>(&rdp->cblist_len)))
      << corrupt.RenderText();
  EXPECT_EQ(FiredRules(corrupt), std::vector<std::string>{"VC008"});
  // Repair + re-sweep: the refresh re-reads the page, and the finding clears.
  rdp->cblist_len -= 3;
  kernel_->BumpGeneration();
  CheckReport fixed = Sweep();
  EXPECT_EQ(fixed.violations(), 0u) << fixed.RenderText();
}

TEST_F(IncrementalCheckTest, SuspectBecomesUseAfterFreeOnceFreed) {
  vkern::kmem_cache* cache = kernel_->slabs().FindCache("maple_node");
  ASSERT_NE(cache, nullptr);
  void* obj = kernel_->slabs().Alloc(cache);
  ASSERT_NE(obj, nullptr);
  kernel_->BumpGeneration();
  CheckReport clean = Sweep();
  ASSERT_EQ(clean.violations(), 0u) << clean.RenderText();
  AddSuspect(reinterpret_cast<uint64_t>(obj));
  CheckReport live = Sweep();
  EXPECT_EQ(live.violations(), 0u) << live.RenderText();  // object is live
  // Now the object dies; the suspect pointer becomes a use-after-free.
  vkern::SlabAllocator::Free(cache, obj);
  kernel_->BumpGeneration();
  CheckReport uaf = Sweep();
  EXPECT_TRUE(FiredAt(uaf, "VC006", reinterpret_cast<uint64_t>(obj))) << uaf.RenderText();
}

// ---------------------------------------------------------------------------
// Batched sweeps: the rules defer their misses, one batch per sweep
// ---------------------------------------------------------------------------

void NoopRcuFn(vkern::rcu_head*) {}

class CheckBatchTest : public IncrementalCheckTest {};

// One kernel step frees a slab object (VC005 reads its freelist word) and
// queues an RCU callback (VC008 reads its rcu_head): the blocks of both are
// new to the cache. The incremental sweep fetches them in one ReadVector,
// and neither rule pays a round trip of its own.
TEST_F(CheckBatchTest, SlabFreeAndRcuCallbackMissesRideOneBatch) {
  vkern::kmem_cache* cache = kernel_->slabs().FindCache("maple_node");
  ASSERT_NE(cache, nullptr);
  void* freed = kernel_->slabs().Alloc(cache);
  void* callback = kernel_->slabs().Alloc(cache);
  ASSERT_NE(freed, nullptr);
  ASSERT_NE(callback, nullptr);
  kernel_->BumpGeneration();
  ASSERT_EQ(Sweep().violations(), 0u);

  vkern::SlabAllocator::Free(cache, freed);
  kernel_->rcu().CallRcu(0, static_cast<vkern::rcu_head*>(callback), &NoopRcuFn);
  kernel_->BumpGeneration();
  const dbg::ReadSession& session = debugger_->session();
  const dbg::CacheStats before = session.cache_stats();
  const uint64_t deferrals = session.deferrals();
  CheckReport report = Sweep();
  EXPECT_EQ(report.violations(), 0u) << report.RenderText();
  EXPECT_EQ(report.batches, 1u);
  EXPECT_GT(session.deferrals(), deferrals);
  EXPECT_GT(session.cache_stats().vector_blocks, before.vector_blocks);
  for (const char* id : {"VC005", "VC008"}) {
    const CheckRuleReport* rule = FindRuleReport(report, id);
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->reads, 0u) << id << " paid round trips of its own";
  }
  // The batch and the epoch sync are the sweep's only round trips here.
  EXPECT_EQ(report.reads, 0u) << report.RenderText();
}

// On a cold cache every rule defers its first read: a deferred read is not a
// finding, so the sweep reports nothing, what the stopped rules read after the
// batch reconciles with the clock, and deferrals do not count against the
// violation cap: VC010's deferring attempt reads every wheel bucket head,
// so its batch fetches every block of timer_bases.
TEST_F(CheckBatchTest, ColdSweepDefersWithoutUnreadableFindings) {
  const dbg::ReadSession& session = debugger_->session();
  dbg::Value wheel;
  ASSERT_TRUE(debugger_->symbols().FindGlobal("timer_bases", &wheel));
  ASSERT_NE(wheel.type(), nullptr);
  const uint64_t wheel_blocks = wheel.type()->size / session.config().block_bytes;
  CheckReport timers = Sweep("VC010");
  EXPECT_EQ(timers.batches, 1u);
  EXPECT_GE(session.cache_stats().vector_blocks, wheel_blocks);

  const uint64_t deferrals = session.deferrals();
  CheckReport report = Sweep();
  EXPECT_GT(session.deferrals(), deferrals);
  EXPECT_GT(report.batches, 0u);
  EXPECT_EQ(report.violations(), 0u) << report.RenderText();
  EXPECT_EQ(report.RenderText().find("unreadable"), std::string::npos) << report.RenderText();
  EXPECT_EQ(report.clock_delta_ns, report.charged_ns + report.sync_ns + report.batch_ns);
}

// ---------------------------------------------------------------------------
// Fleet sweep + sweep stats
// ---------------------------------------------------------------------------

TEST(CheckServeTest, ServerSweepCoversEveryShard) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("s0", dbg::LatencyModel::GdbQemu()).ok());
  ASSERT_TRUE(server.BootShard("s1", dbg::LatencyModel::GdbQemu()).ok());
  auto sweep = server.Sweep();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->shards.size(), 2u);
  EXPECT_EQ(sweep->violations(), 0u) << sweep->RenderText();
  EXPECT_EQ(sweep->rules_run(), 2 * CheckEngine::Catalog().size());
  EXPECT_TRUE(sweep->reconciled());

  auto one = server.Sweep("VC008");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->rules_run(), 2u);
  EXPECT_FALSE(server.Sweep("VC999").ok());

  // Corrupt one shard only; the fleet sweep localizes the finding.
  vkern::Kernel* kernel = server.shard_kernel("s0");
  ASSERT_NE(kernel, nullptr);
  kernel->rcu_data_array()[0].cblist_len += 2;
  kernel->BumpGeneration();
  auto dirty = server.Sweep("VC008");
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(dirty->violations(), 1u) << dirty->RenderText();
  for (const vserve::Server::ShardSweep& s : dirty->shards) {
    if (s.shard == "s0") {
      EXPECT_EQ(s.report.violations(), 1u);
    } else {
      EXPECT_EQ(s.report.violations(), 0u);
    }
  }

  // Three fleet sweeps (the unknown rule sweeps nothing), each counted on
  // every shard; the fleet stats sum the shards.
  vl::Json stats = server.StatsToJson();
  EXPECT_EQ(stats["shards"]["s0"]["check"]["sweeps"].AsInt(), 3);
  EXPECT_EQ(stats["shards"]["s0"]["check"]["violations"].AsInt(), 1);
  EXPECT_EQ(stats["shards"]["s1"]["check"]["violations"].AsInt(), 0);
  EXPECT_EQ(stats["check"]["sweeps"].AsInt(), 6);
  EXPECT_EQ(stats["check"]["rules_run"].AsInt(),
            static_cast<int64_t>(2 * CheckEngine::Catalog().size() + 4));
  server.ResetStats();
  EXPECT_EQ(server.StatsToJson()["check"]["sweeps"].AsInt(), 0);
}

// Sweep stats belong to the shard: a shard's Target::ResetStats (transport
// accounting) leaves them, Server::ResetStats zeroes them per shard and
// fleet-wide.
TEST(CheckServeTest, ResetStatsClearsShardSweepStats) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("s0", dbg::LatencyModel::GdbQemu()).ok());
  ASSERT_TRUE(server.Sweep().ok());
  vl::Json check = server.StatsToJson()["shards"]["s0"]["check"];
  EXPECT_EQ(check["sweeps"].AsInt(), 1);
  EXPECT_EQ(check["rules_run"].AsInt(), static_cast<int64_t>(CheckEngine::Catalog().size()));
  EXPECT_GT(check["reads"].AsInt(), 0);
  EXPECT_GT(check["read_bytes"].AsInt(), 0);
  EXPECT_GT(check["charged_ns"].AsInt(), 0);

  server.shard_debugger("s0")->target().ResetStats();
  EXPECT_EQ(server.StatsToJson()["check"]["sweeps"].AsInt(), 1);

  server.ResetStats();
  vl::Json reset = server.StatsToJson();
  ASSERT_EQ(reset["check"].size(), 8u);
  for (const auto& [key, value] : reset["check"].entries()) {
    EXPECT_EQ(value.AsInt(), 0) << key;
    EXPECT_EQ(reset["shards"]["s0"]["check"][key].AsInt(), 0) << key;
  }
}

TEST(CheckShellTest, VctrlCheckAndStatsSurfaceSweeps) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("main").ok());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  vserve::DebuggerShell shell(client->session());

  std::string listing = shell.Execute("vctrl check list");
  EXPECT_NE(listing.find("VC001"), std::string::npos);
  EXPECT_NE(listing.find("maple-pivots"), std::string::npos);

  std::string out = shell.Execute("vctrl check");
  EXPECT_NE(out.find("sweep: 1 shard(s)"), std::string::npos) << out;
  EXPECT_NE(out.find("0 violation(s)"), std::string::npos) << out;
  EXPECT_EQ(out.find("NOT RECONCILED"), std::string::npos) << out;

  std::string json = shell.Execute("vctrl check VC008 json");
  EXPECT_NE(json.find("\"rules_run\""), std::string::npos) << json;

  EXPECT_NE(shell.Execute("vctrl check bogus-rule").find("error"), std::string::npos);
  EXPECT_EQ(shell.Execute("vctrl check all incremental").rfind("usage: vctrl check", 0), 0u);

  std::string stats = shell.Execute("vctrl stats");
  EXPECT_NE(stats.find("check:"), std::string::npos) << stats;
  std::string prom = shell.Execute("vctrl export prom");
  EXPECT_NE(prom.find("\nvl_serve_check_sweeps "), std::string::npos) << prom;
  EXPECT_NE(prom.find("\nvl_serve_shard_check_sweeps{shard=\"main\"} "), std::string::npos)
      << prom;
}

// vprof profiles from span stats alone: the sweep stats `vctrl stats`
// reports survive it.
TEST(CheckShellTest, VprofKeepsCheckCounters) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("main").ok());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  vserve::DebuggerShell shell(client->session());

  ASSERT_NE(shell.Execute("vctrl check all").find("sweep: 1 shard(s)"), std::string::npos);
  std::string prof =
      shell.Execute(std::string("vprof 1 ") + vision::FindFigure("fig7_1")->viewcl);
  ASSERT_NE(prof.find("vprof pane 1"), std::string::npos) << prof;
  std::string stats = shell.Execute("vctrl stats");
  EXPECT_NE(stats.find("check: 1 sweep(s)"), std::string::npos) << stats;
}

// Sweep stats are not tracing data: `vctrl trace clear` empties the trace,
// yet `vctrl stats` and the fleet gauges still count the sweep.
TEST(CheckShellTest, TraceClearKeepsSweepStats) {
  vserve::Server server;
  ASSERT_TRUE(server.BootShard("main").ok());
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  vserve::DebuggerShell shell(client->session());

  ASSERT_NE(shell.Execute("vctrl check all").find("sweep: 1 shard(s)"), std::string::npos);
  ASSERT_EQ(shell.Execute("vctrl trace clear"), "trace cleared\n");
  std::string stats = shell.Execute("vctrl stats");
  EXPECT_NE(stats.find("check: 1 sweep(s)"), std::string::npos) << stats;
  std::string prom = shell.Execute("vctrl export prom");
  EXPECT_NE(prom.find("\nvl_serve_check_sweeps 1\n"), std::string::npos) << prom;
}

}  // namespace
