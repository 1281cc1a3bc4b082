// The pane-based interactive debugger front-end (paper §2.4).
//
// Panes form a tmux-style split tree. Primary panes display a ViewCL-extracted
// object graph (further customizable with ViewQL); secondary panes display a
// focused subset of another pane's boxes. The "focus" operation searches every
// displayed graph for a given object — the paper's Figure 2 workflow.

#ifndef SRC_VISION_PANES_H_
#define SRC_VISION_PANES_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/dbg/kernel_introspect.h"
#include "src/support/budget.h"
#include "src/support/json.h"
#include "src/support/timeseries.h"
#include "src/viewcl/graph.h"
#include "src/viewql/query.h"
#include "src/vision/render.h"

namespace vision {

struct FocusHit {
  int pane_id = 0;
  uint64_t box_id = viewcl::kNoBox;
};

// What one pane refresh cost, on the deterministic virtual clock.
struct RefreshResult {
  uint64_t refresh_ns = 0;  // clock delta across replot + ViewQL + render
  uint64_t epoch = 0;       // kernel mutation epoch the refresh observed
  size_t boxes = 0;         // graph size after the refresh
  // True when the graph digest matched the previous render and the cached
  // output was served instead of re-rendering (see ViewGraph::Digest).
  bool render_reused = false;
  // Budget keys the watchdog flagged on this refresh (details, including the
  // explain tree, land in the attached BudgetRegistry).
  std::vector<std::string> violations;
};

class PaneManager {
 public:
  // `debugger` powers ViewQL raw-field WHERE fallback; may be null.
  explicit PaneManager(dbg::KernelDebugger* debugger);

  // --- pane lifecycle ---
  // The manager starts with one empty primary pane (id 1).
  int root_pane() const { return 1; }

  // Splits `pane_id`, creating a new empty primary pane; 'h' stacks them
  // side by side, 'v' on top of each other. Returns the new pane id.
  vl::StatusOr<int> Split(int pane_id, char direction);

  // Installs a freshly plotted graph into a primary pane.
  vl::Status SetGraph(int pane_id, std::unique_ptr<viewcl::ViewGraph> graph,
                      std::string program_text);

  // Creates a secondary pane showing `box_ids` of `source_pane`'s graph.
  vl::StatusOr<int> CreateSecondary(int source_pane, std::vector<uint64_t> box_ids);

  // Applies a ViewQL program to the pane's graph (the refine operation).
  vl::Status ApplyViewQl(int pane_id, std::string_view program);

  // Rebuilds a primary pane's graph from its ViewCL program text — shared by
  // LoadState (session replay) and RefreshPane (live re-extraction).
  using ReplotFn =
      std::function<vl::StatusOr<std::unique_ptr<viewcl::ViewGraph>>(const std::string&)>;

  // --- vexplain: refresh accounting, time-series, budgets ---
  // Wires the monitoring side-cars in (raw observers; caller keeps ownership,
  // null detaches). The recorder gets one sample per refresh and — when
  // enabled — one cumulative snapshot per render; the budget registry's
  // watchdog runs after every RefreshPane.
  void AttachObservers(vl::TimeSeriesRecorder* recorder, vl::BudgetRegistry* budgets);
  vl::TimeSeriesRecorder* recorder() const { return recorder_; }
  vl::BudgetRegistry* budgets() const { return budgets_; }

  // Re-extracts a primary pane end to end — replot its ViewCL program,
  // re-apply its ViewQL history, render — under one "pane.refresh" span, and
  // measures the whole thing on Target::clock(). While budgets are armed the
  // refresh runs with the tracer in tree mode (the tree reset first, the
  // spans traced before kept), phase budgets sum that tree, and violations
  // carry it; tracer state is restored afterwards (the tree stays frozen for
  // inspection). With tracing already on in tree mode (the `vctrl explain`
  // path) the caller's setup is left untouched.
  vl::StatusOr<RefreshResult> RefreshPane(int pane_id, const ReplotFn& replot);

  // --- focus: search all panes for an object ---
  std::vector<FocusHit> FocusAddress(uint64_t addr) const;
  // Finds boxes whose evaluated member equals the value (e.g. pid == 42).
  std::vector<FocusHit> FocusMember(const std::string& member, int64_t value) const;

  // --- access ---
  viewcl::ViewGraph* graph(int pane_id);
  const std::vector<int>& pane_ids() const { return pane_order_; }
  bool is_secondary(int pane_id) const;
  std::string pane_title(int pane_id) const;
  // Accumulated ViewQL execution stats for a pane (null if no such pane).
  const viewql::ExecStats* exec_stats(int pane_id) const;
  // The pane's ViewCL source (empty for secondary panes / unknown ids) and
  // the ViewQL programs applied to it, in order — the lint gate's inputs.
  std::string program_text(int pane_id) const;
  const std::vector<std::string>* viewql_history(int pane_id) const;

  // Renders one pane (secondary panes render their subset only) with the
  // named back-end ("ascii", "dot", "json" — see MakeRenderer). Rendering is
  // digest-cached per (backend, options): when the graph's structural digest
  // matches the previous render under the same key, the cached output is
  // returned without re-running the renderer. The cache deliberately survives
  // SetGraph — an incremental refresh that reproduces the same graph skips
  // the re-render entirely.
  std::string RenderPane(int pane_id, const RenderOptions& options = RenderOptions{},
                         std::string_view backend = "ascii");
  // How many RenderPane calls were served from the digest cache vs rendered,
  // since construction or the last ResetRenderDigestStats().
  uint64_t render_digest_hits() const { return render_digest_hits_; }
  uint64_t render_digest_misses() const { return render_digest_misses_; }
  void ResetRenderDigestStats() { render_digest_hits_ = render_digest_misses_ = 0; }
  // Master switch for the digest cache (vserve::SessionOptions::render_cache
  // consolidates this with the extraction-cache config). Disabling re-renders
  // every call; existing cached entries are kept but not consulted.
  void set_render_cache_enabled(bool on) { render_cache_enabled_ = on; }
  bool render_cache_enabled() const { return render_cache_enabled_; }
  // ASCII sketch of the split layout.
  std::string LayoutAscii() const;

  // --- session persistence (paper §4.2) ---
  // The saved state is replayable: pane layout, each primary pane's ViewCL
  // program text, and the ViewQL history applied to it.
  vl::Json SaveState() const;
  // Restores layout + programs from `state`; `replot` is called to rebuild
  // each primary pane's graph from its program text.
  vl::Status LoadState(const vl::Json& state, const ReplotFn& replot);

 private:
  struct Pane {
    int id = 0;
    bool secondary = false;
    std::unique_ptr<viewcl::ViewGraph> graph;  // primary panes
    std::string program_text;                  // ViewCL source (primary)
    std::vector<std::string> viewql_history;
    viewql::ExecStats viewql_stats;            // accumulated over the history
    int source_pane = 0;                       // secondary panes
    std::vector<uint64_t> subset;              // secondary panes
    // Digest-keyed render memo: "backend|options" -> (graph digest, output).
    std::map<std::string, std::pair<uint64_t, std::string>> render_cache;
  };

  struct LayoutNode {
    bool leaf = true;
    int pane_id = 0;
    char direction = 'h';
    std::unique_ptr<LayoutNode> first, second;
  };

  Pane* FindPane(int pane_id);
  const Pane* FindPane(int pane_id) const;
  // Appends a cumulative stats snapshot to series "pane.<id>.render".
  void RecordRenderSample(int pane_id);
  LayoutNode* FindLeaf(LayoutNode* node, int pane_id);
  void LayoutToAscii(const LayoutNode* node, int depth, std::string* out) const;
  vl::Json LayoutToJson(const LayoutNode* node) const;
  vl::StatusOr<std::unique_ptr<LayoutNode>> LayoutFromJson(const vl::Json& node);

  dbg::KernelDebugger* debugger_;
  vl::TimeSeriesRecorder* recorder_ = nullptr;  // not owned; null = detached
  vl::BudgetRegistry* budgets_ = nullptr;       // not owned; null = detached
  std::map<int, Pane> panes_;
  std::vector<int> pane_order_;
  std::unique_ptr<LayoutNode> layout_;
  int next_pane_id_ = 1;
  bool render_cache_enabled_ = true;
  uint64_t render_digest_hits_ = 0;
  uint64_t render_digest_misses_ = 0;
};

}  // namespace vision

#endif  // SRC_VISION_PANES_H_
