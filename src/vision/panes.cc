#include "src/vision/panes.h"

#include "src/support/str.h"
#include "src/support/trace.h"

namespace vision {

PaneManager::PaneManager(dbg::KernelDebugger* debugger) : debugger_(debugger) {
  Pane pane;
  pane.id = next_pane_id_++;
  panes_.emplace(pane.id, std::move(pane));
  pane_order_.push_back(1);
  layout_ = std::make_unique<LayoutNode>();
  layout_->leaf = true;
  layout_->pane_id = 1;
}

PaneManager::Pane* PaneManager::FindPane(int pane_id) {
  auto it = panes_.find(pane_id);
  return it != panes_.end() ? &it->second : nullptr;
}

const PaneManager::Pane* PaneManager::FindPane(int pane_id) const {
  auto it = panes_.find(pane_id);
  return it != panes_.end() ? &it->second : nullptr;
}

PaneManager::LayoutNode* PaneManager::FindLeaf(LayoutNode* node, int pane_id) {
  if (node == nullptr) {
    return nullptr;
  }
  if (node->leaf) {
    return node->pane_id == pane_id ? node : nullptr;
  }
  LayoutNode* found = FindLeaf(node->first.get(), pane_id);
  return found != nullptr ? found : FindLeaf(node->second.get(), pane_id);
}

vl::StatusOr<int> PaneManager::Split(int pane_id, char direction) {
  if (direction != 'h' && direction != 'v') {
    return vl::InvalidArgumentError("split direction must be 'h' or 'v'");
  }
  LayoutNode* leaf = FindLeaf(layout_.get(), pane_id);
  if (leaf == nullptr) {
    return vl::NotFoundError(vl::StrFormat("no pane %d in the layout", pane_id));
  }
  Pane pane;
  pane.id = next_pane_id_++;
  int new_id = pane.id;
  panes_.emplace(new_id, std::move(pane));
  pane_order_.push_back(new_id);

  auto first = std::make_unique<LayoutNode>();
  first->leaf = true;
  first->pane_id = pane_id;
  auto second = std::make_unique<LayoutNode>();
  second->leaf = true;
  second->pane_id = new_id;
  leaf->leaf = false;
  leaf->direction = direction;
  leaf->first = std::move(first);
  leaf->second = std::move(second);
  return new_id;
}

vl::Status PaneManager::SetGraph(int pane_id, std::unique_ptr<viewcl::ViewGraph> graph,
                                 std::string program_text) {
  Pane* pane = FindPane(pane_id);
  if (pane == nullptr) {
    return vl::NotFoundError(vl::StrFormat("no pane %d", pane_id));
  }
  if (pane->secondary) {
    return vl::FailedPreconditionError("cannot plot into a secondary pane");
  }
  pane->graph = std::move(graph);
  pane->program_text = std::move(program_text);
  pane->viewql_history.clear();
  pane->viewql_stats = viewql::ExecStats{};
  return vl::Status::Ok();
}

vl::StatusOr<int> PaneManager::CreateSecondary(int source_pane, std::vector<uint64_t> box_ids) {
  Pane* source = FindPane(source_pane);
  if (source == nullptr || source->graph == nullptr) {
    // A secondary source must itself resolve to a graph-bearing pane.
    if (source != nullptr && source->secondary) {
      source = FindPane(source->source_pane);
    }
    if (source == nullptr || (source->graph == nullptr && !source->secondary)) {
      return vl::FailedPreconditionError("source pane has no graph");
    }
  }
  Pane pane;
  pane.id = next_pane_id_++;
  pane.secondary = true;
  pane.source_pane = source->id;
  pane.subset = std::move(box_ids);
  int new_id = pane.id;
  panes_.emplace(new_id, std::move(pane));
  pane_order_.push_back(new_id);

  // Secondary panes attach to the layout by splitting the source pane.
  LayoutNode* leaf = FindLeaf(layout_.get(), source->id);
  if (leaf != nullptr) {
    auto first = std::make_unique<LayoutNode>();
    first->leaf = true;
    first->pane_id = source->id;
    auto second = std::make_unique<LayoutNode>();
    second->leaf = true;
    second->pane_id = new_id;
    leaf->leaf = false;
    leaf->direction = 'h';
    leaf->first = std::move(first);
    leaf->second = std::move(second);
  }
  return new_id;
}

viewcl::ViewGraph* PaneManager::graph(int pane_id) {
  Pane* pane = FindPane(pane_id);
  if (pane == nullptr) {
    return nullptr;
  }
  if (pane->secondary) {
    Pane* source = FindPane(pane->source_pane);
    return source != nullptr ? source->graph.get() : nullptr;
  }
  return pane->graph.get();
}

bool PaneManager::is_secondary(int pane_id) const {
  const Pane* pane = FindPane(pane_id);
  return pane != nullptr && pane->secondary;
}

std::string PaneManager::pane_title(int pane_id) const {
  const Pane* pane = FindPane(pane_id);
  if (pane == nullptr) {
    return "?";
  }
  if (pane->secondary) {
    return vl::StrFormat("pane %d (secondary of %d, %zu boxes)", pane_id, pane->source_pane,
                         pane->subset.size());
  }
  return vl::StrFormat("pane %d (primary%s)", pane_id,
                       pane->graph != nullptr ? "" : ", empty");
}

vl::Status PaneManager::ApplyViewQl(int pane_id, std::string_view program) {
  viewcl::ViewGraph* target = graph(pane_id);
  if (target == nullptr) {
    return vl::FailedPreconditionError("pane has no graph to refine");
  }
  viewql::QueryEngine engine(target, debugger_);
  VL_RETURN_IF_ERROR(engine.Execute(program));
  Pane* pane = FindPane(pane_id);
  pane->viewql_history.push_back(std::string(program));
  pane->viewql_stats.Merge(engine.stats());
  return vl::Status::Ok();
}

const viewql::ExecStats* PaneManager::exec_stats(int pane_id) const {
  const Pane* pane = FindPane(pane_id);
  return pane != nullptr ? &pane->viewql_stats : nullptr;
}

std::string PaneManager::program_text(int pane_id) const {
  const Pane* pane = FindPane(pane_id);
  return pane != nullptr ? pane->program_text : std::string();
}

const std::vector<std::string>* PaneManager::viewql_history(int pane_id) const {
  const Pane* pane = FindPane(pane_id);
  return pane != nullptr ? &pane->viewql_history : nullptr;
}

void PaneManager::AttachObservers(vl::TimeSeriesRecorder* recorder,
                                  vl::BudgetRegistry* budgets) {
  recorder_ = recorder;
  budgets_ = budgets;
}

namespace {

// Total time of the `name` spans in an attribution tree, nested ones
// included (as Tracer::stats() sums them).
uint64_t SpanTotal(const vl::TreeNode& node, const std::string& name) {
  uint64_t total = 0;
  for (const auto& [child_name, child] : node.children) {
    total += (child_name == name ? child.total_ns : 0) + SpanTotal(child, name);
  }
  return total;
}

}  // namespace

vl::StatusOr<RefreshResult> PaneManager::RefreshPane(int pane_id, const ReplotFn& replot) {
  Pane* pane = FindPane(pane_id);
  if (pane == nullptr) {
    return vl::NotFoundError(vl::StrFormat("no pane %d", pane_id));
  }
  if (pane->secondary) {
    return vl::FailedPreconditionError("cannot refresh a secondary pane");
  }
  if (pane->program_text.empty()) {
    return vl::FailedPreconditionError("pane has no program to refresh");
  }
  if (replot == nullptr) {
    return vl::InvalidArgumentError("refresh needs a replot callback");
  }

  // Arm tree-mode tracing for the watchdog unless the caller already did
  // (the `vctrl explain` path clears + enables before calling us). Enabling
  // tree mode resets the tree; the spans traced so far stay.
  vl::Tracer& tracer = vl::Tracer::Instance();
  bool armed = budgets_ != nullptr && budgets_->armed();
  bool was_enabled = tracer.enabled();
  bool own_tracing = armed && !(was_enabled && tracer.tree_enabled());
  if (own_tracing) {
    tracer.SetTreeEnabled(true);
    tracer.Enable();
  }

  uint64_t clock_before = 0;
  uint64_t reads_before = 0;
  uint64_t bytes_before = 0;
  uint64_t hit_before = 0;
  uint64_t miss_before = 0;
  if (debugger_ != nullptr) {
    clock_before = debugger_->target().clock().nanos();
    reads_before = debugger_->target().reads();
    bytes_before = debugger_->target().bytes_read();
    hit_before = debugger_->session().cache_stats().hit_bytes;
    miss_before = debugger_->session().cache_stats().miss_bytes;
  }

  vl::Status refresh_status = vl::Status::Ok();
  bool render_reused = false;
  {
    vl::ScopedSpan span("pane.refresh");
    refresh_status = [&]() -> vl::Status {
      std::string program = pane->program_text;
      std::vector<std::string> history = pane->viewql_history;
      VL_ASSIGN_OR_RETURN(std::unique_ptr<viewcl::ViewGraph> new_graph, replot(program));
      VL_RETURN_IF_ERROR(SetGraph(pane_id, std::move(new_graph), std::move(program)));
      for (const std::string& entry : history) {
        VL_RETURN_IF_ERROR(ApplyViewQl(pane_id, entry));
      }
      uint64_t hits_before = render_digest_hits_;
      (void)RenderPane(pane_id);
      render_reused = render_digest_hits_ > hits_before;
      return vl::Status::Ok();
    }();
  }

  RefreshResult result;
  if (debugger_ != nullptr) {
    result.refresh_ns = debugger_->target().clock().nanos() - clock_before;
    result.epoch = debugger_->target().memory_generation();
  }
  viewcl::ViewGraph* g = graph(pane_id);
  result.boxes = g != nullptr ? g->size() : 0;
  result.render_reused = render_reused;

  if (refresh_status.ok() && recorder_ != nullptr && recorder_->enabled()) {
    // One sample per refresh: the refresh's own cost deltas. ViewQL stats
    // were reset by SetGraph, so the pane's accumulated stats ARE this
    // refresh's share.
    std::map<std::string, int64_t> values;
    values["refresh_ns"] = static_cast<int64_t>(result.refresh_ns);
    values["epoch"] = static_cast<int64_t>(result.epoch);
    values["boxes"] = static_cast<int64_t>(result.boxes);
    if (debugger_ != nullptr) {
      values["reads"] = static_cast<int64_t>(debugger_->target().reads() - reads_before);
      values["bytes"] =
          static_cast<int64_t>(debugger_->target().bytes_read() - bytes_before);
      const dbg::CacheStats& cache = debugger_->session().cache_stats();
      values["hit_bytes"] = static_cast<int64_t>(cache.hit_bytes - hit_before);
      values["miss_bytes"] = static_cast<int64_t>(cache.miss_bytes - miss_before);
    }
    values["select_ns"] = static_cast<int64_t>(pane->viewql_stats.select_ns);
    values["update_ns"] = static_cast<int64_t>(pane->viewql_stats.update_ns);
    recorder_->Record(vl::StrFormat("pane.%d", pane_id), std::move(values));
  }

  // Watchdog: pane budgets check the refresh's clock delta; any other key is
  // a phase budget checked against that span's total time in this refresh's
  // attribution tree.
  if (refresh_status.ok() && armed) {
    std::string pane_key = vl::StrFormat("pane.%d", pane_id);
    for (const auto& [key, budget_ns] : budgets_->budgets()) {
      uint64_t actual = 0;
      if (key == pane_key) {
        actual = result.refresh_ns;
      } else if (key.rfind("pane.", 0) == 0) {
        continue;  // another pane's budget; not this refresh's business
      } else {
        actual = SpanTotal(tracer.tree_root(), key);
      }
      if (actual > budget_ns) {
        budgets_->RecordViolation(key, budget_ns, actual, result.epoch,
                                  tracer.TreeToJson());
        result.violations.push_back(key);
      }
    }
  }

  if (own_tracing) {
    tracer.SetTreeEnabled(false);  // freeze the tree for inspection
    if (!was_enabled) {
      tracer.Disable();
    }
  }
  if (!refresh_status.ok()) {
    return refresh_status;
  }
  return result;
}

void PaneManager::RecordRenderSample(int pane_id) {
  const Pane* pane = FindPane(pane_id);
  if (pane == nullptr || recorder_ == nullptr) {
    return;
  }
  std::map<std::string, int64_t> values;
  if (debugger_ != nullptr) {
    values["clock_ns"] = static_cast<int64_t>(debugger_->target().clock().nanos());
    values["reads"] = static_cast<int64_t>(debugger_->target().reads());
    values["bytes"] = static_cast<int64_t>(debugger_->target().bytes_read());
    const dbg::CacheStats& cache = debugger_->session().cache_stats();
    values["hit_bytes"] = static_cast<int64_t>(cache.hit_bytes);
    values["miss_bytes"] = static_cast<int64_t>(cache.miss_bytes);
    values["epoch"] = static_cast<int64_t>(debugger_->target().memory_generation());
  }
  viewcl::ViewGraph* g = graph(pane_id);
  values["boxes"] = static_cast<int64_t>(g != nullptr ? g->size() : 0);
  values["statements"] = pane->viewql_stats.statements;
  values["select_ns"] = static_cast<int64_t>(pane->viewql_stats.select_ns);
  values["update_ns"] = static_cast<int64_t>(pane->viewql_stats.update_ns);
  recorder_->Record(vl::StrFormat("pane.%d.render", pane_id), std::move(values));
}

std::vector<FocusHit> PaneManager::FocusAddress(uint64_t addr) const {
  std::vector<FocusHit> hits;
  for (int id : pane_order_) {
    const Pane* pane = FindPane(id);
    const viewcl::ViewGraph* g =
        pane->secondary ? (FindPane(pane->source_pane) != nullptr
                               ? FindPane(pane->source_pane)->graph.get()
                               : nullptr)
                        : pane->graph.get();
    if (g == nullptr) {
      continue;
    }
    g->ForEachBox([&](const viewcl::VBox& box) {
      if (!box.is_virtual() && box.addr() == addr) {
        hits.push_back(FocusHit{id, box.id()});
      }
    });
  }
  return hits;
}

std::vector<FocusHit> PaneManager::FocusMember(const std::string& member, int64_t value) const {
  std::vector<FocusHit> hits;
  for (int id : pane_order_) {
    const Pane* pane = FindPane(id);
    const viewcl::ViewGraph* g =
        pane->secondary ? (FindPane(pane->source_pane) != nullptr
                               ? FindPane(pane->source_pane)->graph.get()
                               : nullptr)
                        : pane->graph.get();
    if (g == nullptr) {
      continue;
    }
    g->ForEachBox([&](const viewcl::VBox& box) {
      auto it = box.members().find(member);
      if (it != box.members().end() &&
          it->second.kind == viewcl::MemberValue::Kind::kInt && it->second.num == value) {
        hits.push_back(FocusHit{id, box.id()});
      }
    });
  }
  return hits;
}

std::string PaneManager::RenderPane(int pane_id, const RenderOptions& options,
                                    std::string_view backend) {
  vl::ScopedSpan span("render.pane");
  Pane* pane = FindPane(pane_id);
  if (pane == nullptr) {
    return "(no such pane)\n";
  }
  viewcl::ViewGraph* g = graph(pane_id);
  if (g == nullptr) {
    return "(empty pane)\n";
  }
  std::unique_ptr<Renderer> renderer = MakeRenderer(backend, options);
  if (renderer == nullptr) {
    return "(unknown render backend: " + std::string(backend) + ")\n";
  }

  // Digest cache: anything a back-end consumes is folded into the digest, so
  // same digest + same (backend, options) key => byte-identical output. For
  // secondary panes the digest is taken with the subset installed as roots,
  // so it also covers subset membership and order.
  std::string cache_key =
      vl::StrFormat("%s|%d%d|%d", std::string(backend).c_str(),
                    options.show_addresses ? 1 : 0, options.show_attributes ? 1 : 0,
                    options.max_container_preview);
  std::string out;
  bool reused = false;
  std::vector<uint64_t> saved;
  if (pane->secondary) {
    saved = g->roots();
    g->roots() = pane->subset;
  }
  uint64_t digest = g->Digest();
  auto cached = render_cache_enabled_ ? pane->render_cache.find(cache_key)
                                      : pane->render_cache.end();
  if (cached != pane->render_cache.end() && cached->second.first == digest) {
    out = cached->second.second;
    reused = true;
  } else {
    out = renderer->Render(*g);
    if (render_cache_enabled_) {
      pane->render_cache[cache_key] = {digest, out};
    }
  }
  if (pane->secondary) {
    g->roots() = saved;
  }
  if (reused) {
    ++render_digest_hits_;
  } else {
    ++render_digest_misses_;
  }
  // The disabled cost of the watch hook is this one branch (bench_micro
  // guards it alongside the tracing-off fast path).
  if (recorder_ != nullptr && recorder_->enabled()) {
    RecordRenderSample(pane_id);
  }
  return out;
}

void PaneManager::LayoutToAscii(const LayoutNode* node, int depth, std::string* out) const {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (node->leaf) {
    *out += pane_title(node->pane_id) + "\n";
    return;
  }
  *out += node->direction == 'h' ? "split-h\n" : "split-v\n";
  LayoutToAscii(node->first.get(), depth + 1, out);
  LayoutToAscii(node->second.get(), depth + 1, out);
}

std::string PaneManager::LayoutAscii() const {
  std::string out;
  LayoutToAscii(layout_.get(), 0, &out);
  return out;
}

vl::Json PaneManager::LayoutToJson(const LayoutNode* node) const {
  vl::Json j = vl::Json::Object();
  if (node->leaf) {
    j["pane"] = vl::Json::Int(node->pane_id);
    return j;
  }
  j["dir"] = vl::Json::Str(std::string(1, node->direction));
  j["first"] = LayoutToJson(node->first.get());
  j["second"] = LayoutToJson(node->second.get());
  return j;
}

vl::Json PaneManager::SaveState() const {
  vl::Json state = vl::Json::Object();
  state["layout"] = LayoutToJson(layout_.get());
  vl::Json panes = vl::Json::Array();
  for (int id : pane_order_) {
    const Pane* pane = FindPane(id);
    vl::Json jpane = vl::Json::Object();
    jpane["id"] = vl::Json::Int(id);
    jpane["secondary"] = vl::Json::Bool(pane->secondary);
    if (pane->secondary) {
      jpane["source"] = vl::Json::Int(pane->source_pane);
      vl::Json subset = vl::Json::Array();
      for (uint64_t box : pane->subset) {
        subset.Append(vl::Json::Int(static_cast<int64_t>(box)));
      }
      jpane["subset"] = std::move(subset);
    } else {
      jpane["program"] = vl::Json::Str(pane->program_text);
      vl::Json history = vl::Json::Array();
      for (const std::string& entry : pane->viewql_history) {
        history.Append(vl::Json::Str(entry));
      }
      jpane["viewql"] = std::move(history);
      if (pane->viewql_stats.statements > 0) {
        jpane["exec"] = pane->viewql_stats.ToJson();
      }
    }
    panes.Append(std::move(jpane));
  }
  state["panes"] = std::move(panes);
  // Extraction cost profile (ignored by LoadState; sessions stay replayable).
  if (debugger_ != nullptr) {
    state["stats"] = debugger_->target().StatsToJson();
    state["cache"] = debugger_->session().StatsToJson();
  }
  return state;
}

vl::StatusOr<std::unique_ptr<PaneManager::LayoutNode>> PaneManager::LayoutFromJson(
    const vl::Json& node) {
  auto out = std::make_unique<LayoutNode>();
  if (const vl::Json* pane = node.Find("pane")) {
    out->leaf = true;
    out->pane_id = static_cast<int>(pane->AsInt());
    return out;
  }
  const vl::Json* dir = node.Find("dir");
  const vl::Json* first = node.Find("first");
  const vl::Json* second = node.Find("second");
  if (dir == nullptr || first == nullptr || second == nullptr) {
    return vl::ParseError("malformed layout node");
  }
  out->leaf = false;
  out->direction = dir->AsString().empty() ? 'h' : dir->AsString()[0];
  VL_ASSIGN_OR_RETURN(out->first, LayoutFromJson(*first));
  VL_ASSIGN_OR_RETURN(out->second, LayoutFromJson(*second));
  return out;
}

vl::Status PaneManager::LoadState(const vl::Json& state, const ReplotFn& replot) {
  const vl::Json* layout = state.Find("layout");
  const vl::Json* panes = state.Find("panes");
  if (layout == nullptr || panes == nullptr) {
    return vl::ParseError("malformed session state");
  }
  VL_ASSIGN_OR_RETURN(std::unique_ptr<LayoutNode> new_layout, LayoutFromJson(*layout));

  panes_.clear();
  pane_order_.clear();
  next_pane_id_ = 1;
  for (const vl::Json& jpane : panes->items()) {
    Pane pane;
    pane.id = static_cast<int>(jpane.Find("id")->AsInt());
    next_pane_id_ = std::max(next_pane_id_, pane.id + 1);
    const vl::Json* secondary = jpane.Find("secondary");
    pane.secondary = secondary != nullptr && secondary->AsBool();
    if (pane.secondary) {
      pane.source_pane = static_cast<int>(jpane.Find("source")->AsInt());
      if (const vl::Json* subset = jpane.Find("subset")) {
        for (const vl::Json& box : subset->items()) {
          pane.subset.push_back(static_cast<uint64_t>(box.AsInt()));
        }
      }
    } else {
      if (const vl::Json* program = jpane.Find("program")) {
        pane.program_text = program->AsString();
      }
      if (!pane.program_text.empty() && replot != nullptr) {
        VL_ASSIGN_OR_RETURN(pane.graph, replot(pane.program_text));
      }
    }
    int id = pane.id;
    panes_.emplace(id, std::move(pane));
    pane_order_.push_back(id);
  }
  layout_ = std::move(new_layout);
  // Re-apply the recorded ViewQL history against the replotted graphs.
  for (const vl::Json& jpane : panes->items()) {
    if (const vl::Json* history = jpane.Find("viewql")) {
      int id = static_cast<int>(jpane.Find("id")->AsInt());
      for (const vl::Json& entry : history->items()) {
        vl::Status status = ApplyViewQl(id, entry.AsString());
        if (!status.ok()) {
          return status;
        }
      }
    }
  }
  return vl::Status::Ok();
}

}  // namespace vision
