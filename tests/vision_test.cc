// Visualizer tests: renderers (ASCII/DOT/JSON) with ViewQL attribute
// semantics, the pane tree with focus (paper Figure 2), the v-command shell,
// vchat synthesis, and session persistence.

#include <gtest/gtest.h>

#include "src/support/json.h"
#include "src/vision/figures.h"
#include "src/vision/panes.h"
#include "src/vision/render.h"
#include "src/vision/vchat.h"
#include "tests/served_shell.h"
#include "tests/test_util.h"

namespace vision {
namespace {

class VisionTest : public vltest::WorkloadKernelTest {
 protected:
  void SetUp() override {
    vltest::WorkloadKernelTest::SetUp();
    debugger_ = std::make_unique<dbg::KernelDebugger>(kernel_.get());
    RegisterFigureSymbols(debugger_.get(), workload_.get());
    interp_ = std::make_unique<viewcl::Interpreter>(debugger_.get());
  }

  std::unique_ptr<viewcl::ViewGraph> Plot(const char* figure_id) {
    auto graph = interp_->RunProgram(FindFigure(figure_id)->viewcl);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    return std::move(graph).value();
  }

  std::unique_ptr<dbg::KernelDebugger> debugger_;
  std::unique_ptr<viewcl::Interpreter> interp_;
};

// --- JSON support ---

TEST(JsonTest, RoundTrip) {
  vl::Json obj = vl::Json::Object();
  obj["name"] = vl::Json::Str("maple \"tree\"");
  obj["count"] = vl::Json::Int(42);
  obj["ok"] = vl::Json::Bool(true);
  obj["nothing"] = vl::Json::Null();
  vl::Json arr = vl::Json::Array();
  arr.Append(vl::Json::Int(1));
  arr.Append(vl::Json::Number(2.5));
  obj["items"] = std::move(arr);

  std::string text = obj.Dump(2);
  auto parsed = vl::Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->AsString(), "maple \"tree\"");
  EXPECT_EQ(parsed->Find("count")->AsInt(), 42);
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  EXPECT_TRUE(parsed->Find("nothing")->is_null());
  EXPECT_EQ(parsed->Find("items")->size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->Find("items")->at(1).AsNumber(), 2.5);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(vl::Json::Parse("{").ok());
  EXPECT_FALSE(vl::Json::Parse("[1,]").ok());
  EXPECT_FALSE(vl::Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(vl::Json::Parse("{1: 2}").ok());
  EXPECT_FALSE(vl::Json::Parse("42 43").ok());
  EXPECT_TRUE(vl::Json::Parse("  [1, 2, {\"a\": null}]  ").ok());
}

// --- renderers ---

TEST_F(VisionTest, AsciiRendererShowsBoxesAndItems) {
  auto graph = Plot("fig7_1");
  std::string out = AsciiRenderer().Render(*graph);
  EXPECT_NE(out.find("rq"), std::string::npos);
  EXPECT_NE(out.find("tasks_timeline"), std::string::npos);
  EXPECT_NE(out.find("pid ="), std::string::npos);
  EXPECT_NE(out.find("== plot 1 =="), std::string::npos);
  EXPECT_NE(out.find("== plot 2 =="), std::string::npos);
}

TEST_F(VisionTest, TrimmedBoxesVanishFromRender) {
  auto graph = Plot("fig7_1");
  viewql::QueryEngine engine(graph.get(), debugger_.get());
  ASSERT_TRUE(engine.Execute("a = SELECT task_struct FROM *\n"
                             "UPDATE a WITH trimmed: true")
                  .ok());
  std::string out = AsciiRenderer().Render(*graph);
  EXPECT_EQ(out.find("pid ="), std::string::npos);
  std::set<uint64_t> visible = VisibleBoxes(*graph);
  for (uint64_t id : visible) {
    EXPECT_NE(graph->box(id)->kernel_type(), "task_struct");
  }
}

TEST_F(VisionTest, CollapsedBoxesRenderAsStubs) {
  auto graph = Plot("fig7_1");
  viewql::QueryEngine engine(graph.get(), debugger_.get());
  ASSERT_TRUE(engine.Execute("a = SELECT task_struct FROM *\n"
                             "UPDATE a WITH collapsed: true")
                  .ok());
  std::string out = AsciiRenderer().Render(*graph);
  EXPECT_NE(out.find("(collapsed)"), std::string::npos);
}

TEST_F(VisionTest, ViewAttributeSwitchesRenderedItems) {
  auto graph = Plot("fig7_1");
  std::string before = AsciiRenderer().Render(*graph);
  EXPECT_EQ(before.find("se.vruntime"), std::string::npos);
  viewql::QueryEngine engine(graph.get(), debugger_.get());
  ASSERT_TRUE(engine.Execute("a = SELECT task_struct FROM *\n"
                             "UPDATE a WITH view: sched")
                  .ok());
  std::string after = AsciiRenderer().Render(*graph);
  EXPECT_NE(after.find("se.vruntime ="), std::string::npos);
}

TEST_F(VisionTest, DotRendererEmitsValidDigraph) {
  auto graph = Plot("fig14_3");
  std::string dot = DotRenderer().Render(*graph);
  EXPECT_EQ(dot.substr(0, 8), "digraph ");
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("super_block"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST_F(VisionTest, JsonRendererSerializesGraph) {
  auto graph = Plot("fig14_3");
  vl::Json json = JsonRenderer().ToJson(*graph);
  EXPECT_EQ(json.Find("boxes")->size(), graph->size());
  EXPECT_GE(json.Find("roots")->size(), 1u);
  // Round-trip through text.
  auto parsed = vl::Json::Parse(json.Dump(-1));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("boxes")->size(), graph->size());
}

// --- panes ---

TEST_F(VisionTest, PaneSplitAndPlot) {
  PaneManager panes(debugger_.get());
  auto right = panes.Split(panes.root_pane(), 'h');
  ASSERT_TRUE(right.ok());
  EXPECT_EQ(*right, 2);
  ASSERT_TRUE(panes.SetGraph(1, Plot("fig3_4"), "p1").ok());
  ASSERT_TRUE(panes.SetGraph(2, Plot("fig7_1"), "p2").ok());
  EXPECT_NE(panes.graph(1), nullptr);
  EXPECT_NE(panes.graph(2), nullptr);
  std::string layout = panes.LayoutAscii();
  EXPECT_NE(layout.find("split-h"), std::string::npos);
}

TEST_F(VisionTest, FocusFindsTaskInBothPanes) {
  // The paper's Figure 2: find one task in the parent tree AND the sched tree.
  PaneManager panes(debugger_.get());
  ASSERT_TRUE(panes.Split(1, 'h').ok());
  ASSERT_TRUE(panes.SetGraph(1, Plot("fig3_4"), "tree").ok());
  ASSERT_TRUE(panes.SetGraph(2, Plot("fig7_1"), "rq").ok());
  // Pick a task that is queued on CPU 0 (hence in both plots).
  vkern::task_struct* queued = nullptr;
  kernel_->sched().ForEachQueued(0, [&](vkern::task_struct* t) {
    if (queued == nullptr && t->pid > 0) {
      queued = t;
    }
  });
  ASSERT_NE(queued, nullptr);
  auto hits = panes.FocusAddress(reinterpret_cast<uint64_t>(queued));
  std::set<int> hit_panes;
  for (const FocusHit& hit : hits) {
    hit_panes.insert(hit.pane_id);
  }
  EXPECT_EQ(hit_panes.size(), 2u) << "task must be found in both data structures";
  // Focus by member works too.
  auto by_pid = panes.FocusMember("pid", queued->pid);
  EXPECT_GE(by_pid.size(), 2u);
}

TEST_F(VisionTest, SecondaryPaneShowsSubset) {
  PaneManager panes(debugger_.get());
  ASSERT_TRUE(panes.SetGraph(1, Plot("fig3_4"), "tree").ok());
  viewcl::ViewGraph* g = panes.graph(1);
  uint64_t init_box = viewcl::kNoBox;
  g->ForEachBox([&](const viewcl::VBox& box) {
    if (box.members().count("pid") != 0 && box.members().at("pid").num == 1) {
      init_box = box.id();
    }
  });
  ASSERT_NE(init_box, viewcl::kNoBox);
  auto secondary = panes.CreateSecondary(1, {init_box});
  ASSERT_TRUE(secondary.ok());
  EXPECT_TRUE(panes.is_secondary(*secondary));
  std::string out = panes.RenderPane(*secondary);
  EXPECT_NE(out.find("init"), std::string::npos);
}

TEST_F(VisionTest, RefineAppliesViewQlToPane) {
  PaneManager panes(debugger_.get());
  ASSERT_TRUE(panes.SetGraph(1, Plot("fig3_4"), "tree").ok());
  ASSERT_TRUE(panes
                  .ApplyViewQl(1,
                               "a = SELECT task_struct FROM * WHERE mm == NULL\n"
                               "UPDATE a WITH collapsed: true")
                  .ok());
  size_t collapsed = 0;
  panes.graph(1)->ForEachBox([&](const viewcl::VBox& box) {
    if (box.AttrBool("collapsed")) {
      ++collapsed;
    }
  });
  EXPECT_GT(collapsed, 0u);
}

TEST_F(VisionTest, SessionSaveAndReload) {
  PaneManager panes(debugger_.get());
  ASSERT_TRUE(panes.Split(1, 'v').ok());
  const char* program = R"(
    define Task as Box<task_struct> [ Text pid, comm ]
    plot Task(${&init_task})
  )";
  auto graph = interp_->RunProgram(program);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(panes.SetGraph(1, std::move(graph).value(), program).ok());
  ASSERT_TRUE(panes.ApplyViewQl(1,
                                "a = SELECT task_struct FROM *\n"
                                "UPDATE a WITH collapsed: true")
                  .ok());
  vl::Json saved = panes.SaveState();
  std::string text = saved.Dump(2);

  // Reload into a fresh manager; replot re-runs the recorded ViewCL and the
  // recorded ViewQL history re-applies.
  PaneManager restored(debugger_.get());
  auto parsed = vl::Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  vl::Status status = restored.LoadState(
      *parsed, [this](const std::string& source)
                   -> vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>> {
        viewcl::Interpreter fresh(debugger_.get());
        return fresh.RunProgram(source);
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(restored.graph(1), nullptr);
  size_t collapsed = 0;
  restored.graph(1)->ForEachBox([&](const viewcl::VBox& box) {
    if (box.AttrBool("collapsed")) {
      ++collapsed;
    }
  });
  EXPECT_GT(collapsed, 0u) << "the ViewQL history must replay on load";
  EXPECT_NE(restored.LayoutAscii().find("split-v"), std::string::npos);
}

// --- the v-command shell ---

TEST_F(VisionTest, ShellVplotAndView) {
  vltest::ServedShell shell(debugger_.get());
  std::string out = shell.Execute(
      "vplot 1 define Task as Box<task_struct> [ Text pid, comm ] plot Task(${&init_task})");
  EXPECT_NE(out.find("plotted"), std::string::npos) << out;
  std::string view = shell.Execute("vctrl view 1");
  EXPECT_NE(view.find("swapper/0"), std::string::npos);
}

TEST_F(VisionTest, ShellSplitApplyFocus) {
  vltest::ServedShell shell(debugger_.get());
  shell.Execute(
      "vplot 1 define Task as Box<task_struct> [ Text pid, comm "
      "Link parent -> Task(${@this.parent}) ] plot Task(${target_task})");
  EXPECT_NE(shell.Execute("vctrl split 1 v").find("created pane 2"), std::string::npos);
  std::string applied = shell.Execute(
      "vctrl apply 1 a = SELECT task_struct FROM * WHERE pid == 1 "
      "UPDATE a WITH collapsed: true");
  EXPECT_NE(applied.find("applied"), std::string::npos) << applied;
  std::string focus = shell.Execute("vctrl focus pid 1");
  EXPECT_NE(focus.find("pane 1"), std::string::npos) << focus;
  EXPECT_NE(shell.Execute("vctrl layout").find("split-v"), std::string::npos);
  EXPECT_NE(shell.Execute("vctrl save").find("\"layout\""), std::string::npos);
}

TEST_F(VisionTest, ShellVchatSynthesizesAndApplies) {
  vltest::ServedShell shell(debugger_.get());
  shell.Execute(std::string("vplot 1 ") + FindFigure("fig3_4")->viewcl);
  std::string out =
      shell.Execute("vchat 1 shrink tasks that have no address space");
  EXPECT_NE(out.find("synthesized ViewQL"), std::string::npos) << out;
  EXPECT_NE(out.find("applied"), std::string::npos) << out;
  size_t collapsed = 0;
  shell.panes().graph(1)->ForEachBox([&](const viewcl::VBox& box) {
    if (box.AttrBool("collapsed")) {
      ++collapsed;
    }
  });
  EXPECT_GT(collapsed, 0u);
}

TEST_F(VisionTest, ShellDotAndJsonOutput) {
  vltest::ServedShell shell(debugger_.get());
  shell.Execute(
      "vplot 1 define Task as Box<task_struct> [ Text pid ] plot Task(${&init_task})");
  std::string dot = shell.Execute("vctrl dot 1");
  EXPECT_EQ(dot.substr(0, 8), "digraph ");
  std::string json = shell.Execute("vctrl json 1");
  auto parsed = vl::Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_GE(parsed->Find("boxes")->size(), 1u);
  EXPECT_NE(shell.Execute("vctrl dot 9").find("no such pane"), std::string::npos);
}

TEST_F(VisionTest, ShellReportsErrors) {
  vltest::ServedShell shell(debugger_.get());
  EXPECT_NE(shell.Execute("vplot abc").find("usage"), std::string::npos);
  EXPECT_NE(shell.Execute("vplot 1 not viewcl at all").find("error"), std::string::npos);
  EXPECT_NE(shell.Execute("bogus").find("unknown command"), std::string::npos);
  EXPECT_NE(shell.Execute("vctrl split 99 h").find("error"), std::string::npos);
  EXPECT_NE(shell.Execute("vchat 1 entirely unintelligible gibberish").find("error"),
            std::string::npos);
}

// --- vchat unit behaviour ---

TEST(VchatTest, RecognizesCoreVerbs) {
  VchatSynthesizer vchat;
  auto trimmed = vchat.Synthesize("hide all pages");
  ASSERT_TRUE(trimmed.ok());
  EXPECT_NE(trimmed->find("trimmed: true"), std::string::npos);
  auto collapsed = vchat.Synthesize("collapse all sockets");
  ASSERT_TRUE(collapsed.ok());
  EXPECT_NE(collapsed->find("collapsed: true"), std::string::npos);
  auto view = vchat.Synthesize("display view sched of all processes");
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->find("view: sched"), std::string::npos);
}

TEST(VchatTest, AnaphoraReusesPreviousSelection) {
  VchatSynthesizer vchat;
  auto program = vchat.Synthesize(
      "find memory areas whose address is not 0xdeadbeef, and collapse them");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // One SELECT, one UPDATE on the same set.
  EXPECT_NE(program->find("AS obj"), std::string::npos);
  EXPECT_NE(program->find("obj != 0xdeadbeef"), std::string::npos);
  EXPECT_EQ(program->find("b = SELECT"), std::string::npos) << *program;
}

TEST(VchatTest, RejectsPlaceholders) {
  VchatSynthesizer vchat;
  EXPECT_FALSE(vchat.Synthesize("collapse vmas whose address is not <addr>").ok());
}

TEST(VchatTest, PidListNegation) {
  VchatSynthesizer vchat;
  auto program = vchat.Synthesize("shrink all pid entries except for pids 3 and 9");
  ASSERT_TRUE(program.ok());
  EXPECT_NE(program->find("nr != 3 AND nr != 9"), std::string::npos) << *program;
}

}  // namespace
}  // namespace vision
