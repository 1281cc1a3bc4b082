// vlint golden tests: the paper's whole figure + objective corpus lints
// clean, a broken corpus triggers every rule ID, rendering is byte-stable
// across runs, and the analyzer never charges a single transport nanosecond
// (the zero-read guarantee).

#include "src/analysis/lint.h"

#include <gtest/gtest.h>

#include "src/dbg/kernel_introspect.h"
#include "src/support/trace.h"
#include "src/viewcl/interp.h"
#include "src/viewcl/lexer.h"
#include "src/viewcl/parser.h"
#include "src/viewql/parse.h"
#include "src/vision/figures.h"
#include "tests/served_shell.h"
#include "tests/test_util.h"

namespace analysis {
namespace {

class LintTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get());
    vision::RegisterFigureSymbols(debugger_.get(), workload_.get());
    linter_ = std::make_unique<Linter>(&debugger_->types(), &debugger_->symbols(),
                                       &debugger_->helpers(), &emoji_);
  }

  static bool HasRule(const vl::DiagnosticList& diags, std::string_view rule) {
    for (const vl::Diagnostic& d : diags.diags()) {
      if (d.rule == rule) {
        return true;
      }
    }
    return false;
  }

  static std::string Rules(const vl::DiagnosticList& diags) {
    std::string out;
    for (const vl::Diagnostic& d : diags.diags()) {
      out += d.rule + " " + d.message + "\n";
    }
    return out;
  }

  // Expects exactly one rule fires (possibly several times) in a ViewCL snip.
  void ExpectViewClRule(std::string_view source, std::string_view rule) {
    LintResult result = linter_->LintViewCl(source);
    EXPECT_TRUE(HasRule(result.diagnostics, rule))
        << "expected " << rule << ", got:\n"
        << Rules(result.diagnostics);
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
  viewcl::EmojiRegistry emoji_;
  std::unique_ptr<Linter> linter_;
};

// The ViewCL program behind the summary-dependent ViewQL tests.
constexpr const char* kSummarySource = R"(
define Task as Box<task_struct> {
  :default [
    Text pid, comm
  ]
  :default => :detail [
    Text se.vruntime
  ]
}
plot Task(${&init_task})
)";

// ---------------------------------------------------------------------------
// The paper corpus lints clean, with zero transport traffic.
// ---------------------------------------------------------------------------

TEST_F(LintTest, AllFigureProgramsLintClean) {
  uint64_t ns_before = debugger_->target().clock().nanos();
  uint64_t reads_before = debugger_->target().reads();
  uint64_t bytes_before = debugger_->target().bytes_read();
  for (const vision::FigureDef& fig : vision::AllFigures()) {
    LintResult result = linter_->LintViewCl(fig.viewcl);
    EXPECT_TRUE(result.parse_ok) << fig.id;
    EXPECT_EQ(result.diagnostics.errors(), 0u)
        << fig.id << ":\n"
        << result.diagnostics.RenderText(fig.viewcl, fig.id);
  }
  EXPECT_EQ(debugger_->target().clock().nanos() - ns_before, 0u);
  EXPECT_EQ(debugger_->target().reads() - reads_before, 0u);
  EXPECT_EQ(debugger_->target().bytes_read() - bytes_before, 0u);
}

TEST_F(LintTest, AllObjectivesLintClean) {
  uint64_t ns_before = debugger_->target().clock().nanos();
  uint64_t bytes_before = debugger_->target().bytes_read();
  for (const vision::ObjectiveDef& obj : vision::AllObjectives()) {
    const vision::FigureDef* fig = vision::FindFigure(obj.figure_id);
    ASSERT_NE(fig, nullptr) << obj.figure_id;
    ProgramSummary summary = linter_->SummarizeViewCl(fig->viewcl);
    ASSERT_TRUE(summary.valid) << obj.figure_id;
    LintResult result = linter_->LintViewQl(obj.viewql, &summary);
    EXPECT_TRUE(result.parse_ok) << obj.figure_id;
    EXPECT_EQ(result.diagnostics.errors(), 0u)
        << obj.figure_id << ":\n"
        << result.diagnostics.RenderText(obj.viewql, obj.figure_id);
  }
  EXPECT_EQ(debugger_->target().clock().nanos() - ns_before, 0u);
  EXPECT_EQ(debugger_->target().bytes_read() - bytes_before, 0u);
}

// ---------------------------------------------------------------------------
// Broken corpus: one program per rule ID.
// ---------------------------------------------------------------------------

TEST_F(LintTest, VL000ParseError) {
  LintResult result = linter_->LintViewCl("define Task as");
  EXPECT_FALSE(result.parse_ok);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics.diags()[0].rule, "VL000");
}

TEST_F(LintTest, VL001UnknownKernelType) {
  ExpectViewClRule("define T as Box<task_structt> [ Text pid ]\nplot T(${&init_task})",
                   "VL001");
}

TEST_F(LintTest, VL002DuplicateDefinition) {
  ExpectViewClRule(
      "define T as Box<task_struct> [ Text pid ]\n"
      "define T as Box<task_struct> [ Text comm ]\n"
      "plot T(${&init_task})",
      "VL002");
}

TEST_F(LintTest, VL003UnknownBoxWithFixIt) {
  LintResult result = linter_->LintViewCl(
      "define Task as Box<task_struct> [ Text pid ]\nplot Tsk(${&init_task})");
  ASSERT_TRUE(HasRule(result.diagnostics, "VL003")) << Rules(result.diagnostics);
  const vl::Diagnostic* d = nullptr;
  for (const vl::Diagnostic& diag : result.diagnostics.diags()) {
    if (diag.rule == "VL003") {
      d = &diag;
    }
  }
  ASSERT_NE(d, nullptr);
  ASSERT_TRUE(d->has_fixit);
  EXPECT_EQ(d->fixit.replacement, "Task");
}

TEST_F(LintTest, VL004UnknownField) {
  ExpectViewClRule("define T as Box<task_struct> [ Text pidd ]\nplot T(${&init_task})",
                   "VL004");
}

TEST_F(LintTest, VL005BadAnchorPath) {
  ExpectViewClRule(
      "define T as Box<task_struct> [ Text pid ]\n"
      "x = List(${&init_task.tasks}).forEach |n| { yield T<task_struct.taskss>(@n) }\n"
      "plot @x",
      "VL005");
}

TEST_F(LintTest, VL006ContainerShapeMismatch) {
  // task_struct.se is a sched_entity, not a list_head.
  ExpectViewClRule(
      "define T as Box<task_struct> [ Container c: List(se) ]\nplot T(${&init_task})",
      "VL006");
}

TEST_F(LintTest, VL007UnknownDecoratorHead) {
  ExpectViewClRule("define T as Box<task_struct> [ Text<u65:x> pid ]\nplot T(${&init_task})",
                   "VL007");
}

TEST_F(LintTest, VL008BadDecoratorArgument) {
  // Unknown emoji set: a hard runtime error, so lint makes it an error too.
  LintResult result = linter_->LintViewCl(
      "define T as Box<task_struct> [ Text<emoji:nope> pid ]\nplot T(${&init_task})");
  ASSERT_TRUE(HasRule(result.diagnostics, "VL008")) << Rules(result.diagnostics);
  EXPECT_GT(result.diagnostics.errors(), 0u);
  // A non-enum enum: argument degrades at runtime, so it is only a warning.
  result = linter_->LintViewCl(
      "define T as Box<task_struct> [ Text<enum:task_struct> pid ]\nplot T(${&init_task})");
  ASSERT_TRUE(HasRule(result.diagnostics, "VL008")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
  EXPECT_GT(result.diagnostics.warnings(), 0u);
}

TEST_F(LintTest, VL009UnknownParentView) {
  ExpectViewClRule(
      "define T as Box<task_struct> { :default [ Text pid ] :missing => :kid [ Text comm ] }\n"
      "plot T(${&init_task})",
      "VL009");
}

TEST_F(LintTest, VL010DuplicateView) {
  LintResult result = linter_->LintViewCl(
      "define T as Box<task_struct> { :default [ Text pid ] :default [ Text comm ] }\n"
      "plot T(${&init_task})");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL010")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);  // warning only
}

TEST_F(LintTest, VL011UnboundAtRef) {
  ExpectViewClRule("define T as Box<task_struct> [ Text x: @nope ]\nplot T(${&init_task})",
                   "VL011");
}

TEST_F(LintTest, VL012UnknownCExprIdentifier) {
  ExpectViewClRule(
      "define T as Box<task_struct> [ Text x: ${innit_task.pid} ]\nplot T(${&init_task})",
      "VL012");
}

TEST_F(LintTest, VL013CExprSyntaxError) {
  ExpectViewClRule("define T as Box<task_struct> [ Text x: ${1 + } ]\nplot T(${&init_task})",
                   "VL013");
}

TEST_F(LintTest, VL014DeadDefinition) {
  LintResult result = linter_->LintViewCl(
      "define Used as Box<task_struct> [ Text pid ]\n"
      "define Unused as Box<mm_struct> [ Text map_count ]\n"
      "plot Used(${&init_task})");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL014")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);  // warning only
  // Without a plot the program is a prelude chunk: no dead-code warnings.
  result = linter_->LintViewCl("define Unused as Box<mm_struct> [ Text map_count ]");
  EXPECT_FALSE(HasRule(result.diagnostics, "VL014")) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL015ContainerArity) {
  ExpectViewClRule(
      "define T as Box<task_struct> [ Text pid ]\n"
      "x = RBTree(${cpu_rq(0)->cfs.tasks_timeline}, ${1}).forEach |n| { yield "
      "T<task_struct.se.run_node>(@n) }\n"
      "plot @x",
      "VL015");
}

TEST_F(LintTest, VL101UnknownSet) {
  LintResult result = linter_->LintViewQl("UPDATE nope WITH collapsed: true\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL101")) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL102DuplicateSet) {
  LintResult result = linter_->LintViewQl(
      "a = SELECT task_struct FROM *\na = SELECT mm_struct FROM *\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL102")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
}

TEST_F(LintTest, VL103UnknownSelectType) {
  ProgramSummary summary = linter_->SummarizeViewCl(kSummarySource);
  ASSERT_TRUE(summary.valid);
  LintResult result = linter_->LintViewQl("a = SELECT bogus_kernel_type FROM *\n", &summary);
  EXPECT_TRUE(HasRule(result.diagnostics, "VL103")) << Rules(result.diagnostics);
  EXPECT_GT(result.diagnostics.errors(), 0u);
  // A registered type that simply is not in the pane only warns.
  result = linter_->LintViewQl("a = SELECT dentry FROM *\n", &summary);
  EXPECT_TRUE(HasRule(result.diagnostics, "VL103")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
  // Container kinds are always selectable (the paper's RBTree/List idiom).
  result = linter_->LintViewQl("a = SELECT RBTree FROM *\n", &summary);
  EXPECT_EQ(result.diagnostics.size(), 0u) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL104UnknownView) {
  ProgramSummary summary = linter_->SummarizeViewCl(kSummarySource);
  LintResult result = linter_->LintViewQl(
      "a = SELECT task_struct FROM *\nUPDATE a WITH view: nonexistent\n", &summary);
  EXPECT_TRUE(HasRule(result.diagnostics, "VL104")) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL105UnknownAttribute) {
  LintResult result = linter_->LintViewQl(
      "a = SELECT task_struct FROM *\nUPDATE a WITH color: red\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL105")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
}

TEST_F(LintTest, VL106BadAttributeValue) {
  LintResult result = linter_->LintViewQl(
      "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: maybe\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL106")) << Rules(result.diagnostics);
  result = linter_->LintViewQl(
      "a = SELECT task_struct FROM *\nUPDATE a WITH direction: sideways\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL106")) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL107UnknownWhereMember) {
  ProgramSummary summary = linter_->SummarizeViewCl(kSummarySource);
  LintResult result = linter_->LintViewQl(
      "a = SELECT task_struct FROM * WHERE bogus_member == 1\n", &summary);
  EXPECT_TRUE(HasRule(result.diagnostics, "VL107")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
  // Raw kernel fields resolve even when no item displays them.
  result = linter_->LintViewQl("a = SELECT task_struct FROM * WHERE mm == NULL\n", &summary);
  EXPECT_FALSE(HasRule(result.diagnostics, "VL107")) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL108ReachableOverAll) {
  LintResult result = linter_->LintViewQl("a = SELECT task_struct FROM REACHABLE(*)\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL108")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
}

TEST_F(LintTest, VL109UnknownEnumerator) {
  LintResult result = linter_->LintViewQl(
      "a = SELECT task_struct FROM * WHERE pid == BOGUS_CONSTANT\n");
  EXPECT_TRUE(HasRule(result.diagnostics, "VL109")) << Rules(result.diagnostics);
  // A real enumerator passes.
  result = linter_->LintViewQl("a = SELECT task_struct FROM * WHERE pid == PAGE_SIZE\n");
  EXPECT_FALSE(HasRule(result.diagnostics, "VL109")) << Rules(result.diagnostics);
}

TEST_F(LintTest, VL110UnknownItemPath) {
  ProgramSummary summary = linter_->SummarizeViewCl(kSummarySource);
  LintResult result = linter_->LintViewQl("a = SELECT Task.slots FROM *\n", &summary);
  EXPECT_TRUE(HasRule(result.diagnostics, "VL110")) << Rules(result.diagnostics);
  EXPECT_EQ(result.diagnostics.errors(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: byte-identical text + JSON across two runs.
// ---------------------------------------------------------------------------

TEST_F(LintTest, RenderingIsByteStable) {
  const char* broken =
      "define Task as Box<task_structt> [ Text pidd, @nope ]\n"
      "plot Tsk(${&init_task})";
  LintResult a = linter_->LintViewCl(broken);
  LintResult b = linter_->LintViewCl(broken);
  EXPECT_GT(a.diagnostics.size(), 0u);
  EXPECT_EQ(a.diagnostics.RenderText(broken, "broken"),
            b.diagnostics.RenderText(broken, "broken"));
  EXPECT_EQ(a.diagnostics.ToJson("broken").Dump(2), b.diagnostics.ToJson("broken").Dump(2));
  // The figure corpus renders byte-stable too.
  for (const vision::FigureDef& fig : vision::AllFigures()) {
    LintResult r1 = linter_->LintViewCl(fig.viewcl);
    LintResult r2 = linter_->LintViewCl(fig.viewcl);
    EXPECT_EQ(r1.diagnostics.ToJson(fig.id).Dump(2), r2.diagnostics.ToJson(fig.id).Dump(2))
        << fig.id;
  }
}

TEST_F(LintTest, DiagnosticsAreSortedBySourceOrder) {
  LintResult result = linter_->LintViewCl(
      "define T as Box<task_struct> [ Text pidd ]\n"
      "define U as Box<mm_structt> [ Text x: @nope ]\n"
      "plot T(${&init_task})\nplot U(${0})");
  size_t last_offset = 0;
  for (const vl::Diagnostic& d : result.diagnostics.diags()) {
    EXPECT_GE(d.span.offset, last_offset) << Rules(result.diagnostics);
    last_offset = d.span.offset;
  }
}

// ---------------------------------------------------------------------------
// Fix-its.
// ---------------------------------------------------------------------------

TEST_F(LintTest, ApplyFixItsRepairsTheProgram) {
  const char* broken =
      "define Task as Box<task_struct> [ Text pid ]\nplot Tsk(${&init_task})";
  LintResult result = linter_->LintViewCl(broken);
  ASSERT_TRUE(HasRule(result.diagnostics, "VL003"));
  std::string fixed = vl::ApplyFixIts(broken, result.diagnostics.diags());
  EXPECT_NE(fixed.find("plot Task("), std::string::npos) << fixed;
  LintResult relint = linter_->LintViewCl(fixed);
  EXPECT_EQ(relint.diagnostics.errors(), 0u)
      << relint.diagnostics.RenderText(fixed, "fixed");
}

// ---------------------------------------------------------------------------
// Span accuracy through both front-ends.
// ---------------------------------------------------------------------------

TEST_F(LintTest, ViewClLexerSpans) {
  auto toks = viewcl::LexViewCl("define Task as Box<task_struct>");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 2u);
  const viewcl::Token& define_tok = (*toks)[0];
  EXPECT_EQ(define_tok.line, 1);
  EXPECT_EQ(define_tok.col, 1);
  EXPECT_EQ(define_tok.offset, 0u);
  EXPECT_EQ(define_tok.length, 6u);  // "define"
  const viewcl::Token& task_tok = (*toks)[1];
  EXPECT_EQ(task_tok.col, 8);
  EXPECT_EQ(task_tok.offset, 7u);
  EXPECT_EQ(task_tok.length, 4u);  // "Task"
}

TEST_F(LintTest, ViewQlTokenSpans) {
  auto toks = viewql::LexViewQl("a = SELECT\n  task_struct FROM *");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 5u);
  EXPECT_EQ((*toks)[0].line, 1);
  EXPECT_EQ((*toks)[0].col, 1);
  const viewql::Token& type_tok = (*toks)[3];
  EXPECT_EQ(type_tok.text, "task_struct");
  EXPECT_EQ(type_tok.line, 2);
  EXPECT_EQ(type_tok.col, 3);
  EXPECT_EQ(type_tok.offset, 13u);
  EXPECT_EQ(type_tok.length, 11u);
}

TEST_F(LintTest, DiagnosticSpanPointsAtTheOffendingToken) {
  const char* broken =
      "define Task as Box<task_struct> [ Text pid ]\nplot Tsk(${&init_task})";
  LintResult result = linter_->LintViewCl(broken);
  ASSERT_TRUE(HasRule(result.diagnostics, "VL003"));
  for (const vl::Diagnostic& d : result.diagnostics.diags()) {
    if (d.rule != "VL003") {
      continue;
    }
    EXPECT_EQ(d.span.line, 2);
    EXPECT_EQ(std::string_view(broken).substr(d.span.offset, d.span.length), "Tsk");
  }
}

// ---------------------------------------------------------------------------
// Interp integration: structured Load errors + the fail-fast lint hook.
// ---------------------------------------------------------------------------

TEST_F(LintTest, InterpRejectsDuplicateDefinitionInOneChunk) {
  viewcl::Interpreter interp(debugger_.get());
  vl::Status status = interp.Load(
      "define T as Box<task_struct> [ Text pid ]\n"
      "define T as Box<task_struct> [ Text comm ]");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("duplicate definition"), std::string::npos)
      << status.ToString();
}

TEST_F(LintTest, InterpAllowsCrossChunkRedefinition) {
  viewcl::Interpreter interp(debugger_.get());
  ASSERT_TRUE(interp.Load("define T as Box<task_struct> [ Text pid ]").ok());
  EXPECT_TRUE(interp.Load("define T as Box<task_struct> [ Text comm ]").ok());
}

TEST_F(LintTest, InterpRejectsUnknownDecoratorHead) {
  viewcl::Interpreter interp(debugger_.get());
  vl::Status status = interp.Load("define T as Box<task_struct> [ Text<u65:x> pid ]");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown decorator"), std::string::npos)
      << status.ToString();
}

TEST_F(LintTest, FailFastLoadValidatorRefusesBadChunks) {
  viewcl::Interpreter interp(debugger_.get());
  interp.SetLoadValidator(linter_->MakeLoadValidator());
  vl::Status status =
      interp.Load("define T as Box<task_struct> [ Text pidd ]\nplot T(${&init_task})");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("VL004"), std::string::npos) << status.ToString();
  // A clean chunk passes and still evaluates.
  ASSERT_TRUE(
      interp.Load("define T as Box<task_struct> [ Text pid ]\nplot T(${&init_task})").ok());
  auto graph = interp.Run();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_GT((*graph)->size(), 0u);
}

// ---------------------------------------------------------------------------
// Observability: the vlint span and its diagnostic-count annotations,
// recorded only under tracing.
// ---------------------------------------------------------------------------

TEST_F(LintTest, CountersBumpOnlyWhenTracing) {
  vl::Tracer& tracer = vl::Tracer::Instance();
  tracer.Clear();
  linter_->LintViewCl("define T as Box<task_struct> [ Text pid ]\nplot T(${&init_task})");
  EXPECT_EQ(tracer.stats().count("vlint"), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());

  tracer.Enable();
  linter_->LintViewCl("define T as Box<task_struct> [ Text pidd ]\nplot T(${&init_task})");
  tracer.Disable();
  ASSERT_EQ(tracer.stats().count("vlint"), 1u);
  EXPECT_EQ(tracer.stats().at("vlint").count, 1u);
  std::vector<vl::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "vlint");
  std::map<std::string, int64_t> args(events[0].args.begin(), events[0].args.end());
  EXPECT_GT(args["lint.errors"], 0);
  EXPECT_EQ(args.count("lint.warnings"), 1u);
  EXPECT_EQ(args.count("lint.notes"), 1u);
  tracer.Clear();
}

// ---------------------------------------------------------------------------
// Shell integration: vctrl lint + the vchat gate.
// ---------------------------------------------------------------------------

class LintShellTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get());
    vision::RegisterFigureSymbols(debugger_.get(), workload_.get());
    shell_ = std::make_unique<vltest::ServedShell>(debugger_.get());
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
  std::unique_ptr<vltest::ServedShell> shell_;
};

TEST_F(LintShellTest, VctrlLintPane) {
  std::string out = shell_->Execute(
      "vplot 1 define Task as Box<task_struct> [ Text pid, comm ]\n"
      "tasks = List(${&init_task.tasks}).forEach |n| { yield Task<task_struct.tasks>(@n) }\n"
      "plot @tasks");
  ASSERT_NE(out.find("plotted"), std::string::npos) << out;
  ASSERT_NE(shell_->Execute("vctrl apply 1 a = SELECT task_struct FROM *")
                .find("applied"),
            std::string::npos);
  out = shell_->Execute("vctrl lint 1");
  EXPECT_NE(out.find("0 error(s)"), std::string::npos) << out;
  std::string json = shell_->Execute("vctrl lint 1 json");
  EXPECT_NE(json.find("\"diagnostics\""), std::string::npos) << json;
  EXPECT_NE(json.find("viewql[0]"), std::string::npos) << json;
}

TEST_F(LintShellTest, VctrlLintErrors) {
  EXPECT_NE(shell_->Execute("vctrl lint").find("usage:"), std::string::npos);
  EXPECT_NE(shell_->Execute("vctrl lint 7").find("error:"), std::string::npos);
  EXPECT_NE(shell_->Execute("vctrl lint /no/such/file.vcl").find("error:"),
            std::string::npos);
}

TEST_F(LintShellTest, VchatStillAppliesCleanPrograms) {
  const vision::FigureDef* fig = vision::FindFigure("fig3_4");
  ASSERT_NE(fig, nullptr);
  std::string out = shell_->Execute(std::string("vplot 1 ") + fig->viewcl);
  ASSERT_NE(out.find("plotted"), std::string::npos) << out;
  out = shell_->Execute("vchat 1 shrink tasks that have no address space");
  EXPECT_NE(out.find("applied"), std::string::npos) << out;
}

}  // namespace
}  // namespace analysis
