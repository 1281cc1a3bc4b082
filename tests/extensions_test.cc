// Tests for the extension features: naive ViewCL synthesis (paper §4's
// "vplot can synthesize naive ViewCL code"), the ViewQL MEMBERS() operator,
// Table 1 decorator coverage, and debugger failure injection.

#include <gtest/gtest.h>

#include <cstring>

#include "src/viewcl/decorate.h"
#include "src/viewcl/interp.h"
#include "src/viewcl/synthesize.h"
#include "src/viewql/query.h"
#include "tests/served_shell.h"
#include "tests/test_util.h"

namespace {

class ExtensionsTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get());
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
};

// --- naive ViewCL synthesis ---

TEST_F(ExtensionsTest, SynthesizeGeneratesValidProgram) {
  auto program =
      viewcl::SynthesizeViewCl(debugger_->types(), "task_struct", "&init_task");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_NE(program->find("define Auto_task_struct as Box<task_struct>"), std::string::npos);
  EXPECT_NE(program->find("Text<string> comm"), std::string::npos);
  EXPECT_NE(program->find("Text pid"), std::string::npos);
  EXPECT_NE(program->find("plot Auto_task_struct(${&init_task})"), std::string::npos);

  viewcl::Interpreter interp(debugger_.get());
  auto graph = interp.RunProgram(*program);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ((*graph)->roots().size(), 1u);
  const viewcl::VBox* box = (*graph)->box((*graph)->roots()[0]);
  EXPECT_EQ(box->members().at("comm").str, "swapper/0");
  EXPECT_EQ(box->members().at("pid").num, 0);
}

TEST_F(ExtensionsTest, SynthesizeHonorsFieldLimit) {
  viewcl::SynthesisOptions options;
  options.max_fields = 3;
  auto program =
      viewcl::SynthesizeViewCl(debugger_->types(), "task_struct", "&init_task", options);
  ASSERT_TRUE(program.ok());
  // Count Text items.
  int texts = 0;
  size_t pos = 0;
  while ((pos = program->find("Text", pos)) != std::string::npos) {
    ++texts;
    pos += 4;
  }
  EXPECT_EQ(texts, 3);
}

TEST_F(ExtensionsTest, SynthesizeRejectsUnknownAndOpaqueTypes) {
  EXPECT_FALSE(viewcl::SynthesizeViewCl(debugger_->types(), "no_such_type", "0").ok());
  EXPECT_FALSE(viewcl::SynthesizeViewCl(debugger_->types(), "unsigned long", "0").ok());
}

TEST_F(ExtensionsTest, ShellAutoPlot) {
  vltest::ServedShell shell(debugger_.get());
  std::string out = shell.Execute("vplot 1 --auto rq cpu_rq(1)");
  EXPECT_NE(out.find("synthesized ViewCL"), std::string::npos) << out;
  EXPECT_NE(out.find("plotted"), std::string::npos) << out;
  std::string view = shell.Execute("vctrl view 1");
  EXPECT_NE(view.find("cpu = 1"), std::string::npos) << view;
  // Usage errors.
  EXPECT_NE(shell.Execute("vplot 1 --auto").find("usage"), std::string::npos);
  EXPECT_NE(shell.Execute("vplot 1 --auto nothere 0").find("error"), std::string::npos);
}

// --- ViewQL MEMBERS() ---

TEST_F(ExtensionsTest, MembersOperatorIsOneHop) {
  viewcl::Interpreter interp(debugger_.get());
  vkern::task_struct* thread = workload_->user_tasks()[1];
  char program[256];
  std::snprintf(program, sizeof(program), R"(
    define Task as Box<task_struct> [
      Text pid
      Link parent -> Task(${@this.parent})
    ]
    plot Task(${(task_struct*)0x%llx})
  )",
                static_cast<unsigned long long>(reinterpret_cast<uint64_t>(thread)));
  auto g = interp.RunProgram(program);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Chain: thread -> leader -> init -> swapper (4 boxes).
  ASSERT_EQ((*g)->size(), 4u);

  viewql::QueryEngine engine(g->get(), debugger_.get());
  ASSERT_TRUE(engine
                  .Execute("root = SELECT task_struct FROM * WHERE pid == " +
                           std::to_string(thread->pid) +
                           "\n"
                           "hop1 = SELECT * FROM MEMBERS(root)\n"
                           "hop2 = SELECT * FROM MEMBERS(hop1)\n"
                           "all = SELECT * FROM REACHABLE(root)")
                  .ok());
  EXPECT_EQ(engine.FindSet("root")->size(), 1u);
  EXPECT_EQ(engine.FindSet("hop1")->size(), 1u);  // the leader only
  EXPECT_EQ(engine.FindSet("hop2")->size(), 1u);  // init only
  EXPECT_EQ(engine.FindSet("all")->size(), 4u);   // transitive closure
}

// --- Table 1 decorator coverage (direct) ---

class DecoratorTest : public ExtensionsTest {
 protected:
  vl::StatusOr<viewcl::DecoratedText> Fmt(const std::string& spec, dbg::Value value) {
    return viewcl::FormatDecorated(&debugger_->context(), &emoji_, spec, value);
  }
  dbg::Value U64(uint64_t v) { return dbg::Value::MakeInt(debugger_->types().u64(), v); }

  viewcl::EmojiRegistry emoji_;
};

TEST_F(DecoratorTest, IntBases) {
  EXPECT_EQ(Fmt("u64:x", U64(255))->display, "0xff");
  EXPECT_EQ(Fmt("u64:o", U64(8))->display, "010");
  EXPECT_EQ(Fmt("u64:b", U64(5))->display, "0b101");
  EXPECT_EQ(Fmt("u64", U64(123))->display, "123");
  EXPECT_EQ(Fmt("u8:x", U64(0x1ff))->display, "0xff");  // width truncation
  EXPECT_EQ(Fmt("s32", U64(static_cast<uint64_t>(-5) & 0xffffffff))->display, "-5");
}

TEST_F(DecoratorTest, BoolCharRawPtr) {
  EXPECT_EQ(Fmt("bool", U64(1))->display, "true");
  EXPECT_EQ(Fmt("bool", U64(0))->display, "false");
  EXPECT_EQ(Fmt("char", U64('q'))->display, "'q'");
  EXPECT_EQ(Fmt("raw_ptr", U64(0xdead))->display, "0xdead");
}

TEST_F(DecoratorTest, EnumAndFlag) {
  EXPECT_EQ(Fmt("enum:maple_type", U64(vkern::maple_leaf_64))->display, "maple_leaf_64");
  EXPECT_EQ(Fmt("enum:maple_type", U64(99))->display, "99");  // unknown falls back
  auto flags = Fmt("flag:vm_flags_bits", U64(vkern::VM_READ | vkern::VM_WRITE));
  EXPECT_NE(flags->display.find("VM_READ"), std::string::npos);
  EXPECT_NE(flags->display.find("VM_WRITE"), std::string::npos);
  EXPECT_EQ(Fmt("flag:vm_flags_bits", U64(0))->display, "0");
}

TEST_F(DecoratorTest, FunPtrSymbolizes) {
  // Find the address registered for mt_free_rcu.
  uint64_t addr = 0;
  for (const auto& [a, name] : kernel_->function_symbols()) {
    if (name == "mt_free_rcu") {
      addr = a;
    }
  }
  ASSERT_NE(addr, 0u);
  EXPECT_EQ(Fmt("fptr", U64(addr))->display, "mt_free_rcu");
  EXPECT_EQ(Fmt("fptr", U64(0))->display, "SIG_DFL");  // null maps to SIG_DFL
}

TEST_F(DecoratorTest, EmojiSets) {
  EXPECT_NE(Fmt("emoji:lock", U64(1))->display.find("held"), std::string::npos);
  EXPECT_NE(Fmt("emoji:lock", U64(0))->display.find("free"), std::string::npos);
  EXPECT_NE(Fmt("emoji:state", U64(0))->display.find("R"), std::string::npos);
  EXPECT_FALSE(Fmt("emoji:nonexistent", U64(0)).ok());
}

TEST_F(DecoratorTest, StringReadsTarget) {
  vkern::task_struct* init = kernel_->procs().init_task();
  dbg::Value comm = dbg::Value::MakeLValue(
      debugger_->types().ArrayOf(debugger_->types().char_type(), vkern::kTaskCommLen),
      reinterpret_cast<uint64_t>(init->comm));
  EXPECT_EQ(Fmt("string", comm)->display, "swapper/0");
}

TEST_F(DecoratorTest, UnknownSpecErrors) {
  EXPECT_FALSE(Fmt("no_such_decorator", U64(1)).ok());
}

// --- failure injection on the debugger target ---

class FlakyMemory : public dbg::MemoryDomain {
 public:
  FlakyMemory(vkern::Arena* arena, uint64_t poison_addr, size_t poison_len)
      : arena_(arena), poison_addr_(poison_addr), poison_len_(poison_len) {}

  bool ReadBytes(uint64_t addr, void* out, size_t len) const override {
    if (addr < poison_addr_ + poison_len_ && poison_addr_ < addr + len) {
      return false;  // simulated bus error / unmapped page
    }
    if (!arena_->Contains(addr, len)) {
      return false;
    }
    std::memcpy(out, arena_->AtAddr(addr), len);
    return true;
  }

 private:
  vkern::Arena* arena_;
  uint64_t poison_addr_;
  size_t poison_len_;
};

TEST_F(ExtensionsTest, TargetSurfacesMemoryFaults) {
  vkern::task_struct* init = kernel_->procs().init_task();
  FlakyMemory memory(&kernel_->arena(), reinterpret_cast<uint64_t>(init),
                     sizeof(vkern::task_struct));
  dbg::Target target(&memory, dbg::LatencyModel::Free());
  auto bad = target.ReadUnsigned(reinterpret_cast<uint64_t>(init), 8);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), vl::StatusCode::kMemoryFault);
  // Reads elsewhere still work.
  auto good = target.ReadUnsigned(reinterpret_cast<uint64_t>(kernel_->runqueues()), 8);
  EXPECT_TRUE(good.ok());
}

TEST_F(ExtensionsTest, ExpressionErrorsOnFaultedMemory) {
  // Evaluating through a faulted object yields an error, not garbage.
  vkern::task_struct* init = kernel_->procs().init_task();
  FlakyMemory memory(&kernel_->arena(), reinterpret_cast<uint64_t>(init),
                     sizeof(vkern::task_struct));
  dbg::Target target(&memory, dbg::LatencyModel::Free());
  dbg::ReadSession session(&target);
  dbg::EvalContext ctx(&debugger_->types(), &session, &debugger_->symbols(),
                       &debugger_->helpers());
  auto result = dbg::EvalCExpression(&ctx, "init_task.pid", nullptr);
  ASSERT_TRUE(result.ok());  // the lvalue forms fine...
  auto loaded = result->Load(&session);
  EXPECT_FALSE(loaded.ok());  // ...but loading it faults
}

}  // namespace
