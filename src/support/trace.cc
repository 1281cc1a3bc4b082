#include "src/support/trace.h"

#include <algorithm>

#include "src/support/str.h"

namespace vl {

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::BeginSpan(std::string name) {
  if (tree_enabled_) {
    if (tree_stack_.empty()) {
      tree_stack_.push_back(&tree_root_);
    }
    tree_stack_.push_back(&tree_stack_.back()->children[name]);
  }
  OpenSpan span;
  span.name = std::move(name);
  span.start_ns = now_ns_;
  span.seq = seq_++;
  stack_.push_back(std::move(span));
}

void Tracer::EndSpan() {
  if (stack_.empty()) {
    return;  // unbalanced EndSpan; tolerate rather than crash the debugger
  }
  OpenSpan span = std::move(stack_.back());
  stack_.pop_back();
  uint64_t dur = now_ns_ - span.start_ns;
  uint64_t self = dur - std::min(dur, span.child_ns);
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  seq_++;  // end transitions count toward the total order too
  SpanStats& agg = stats_[span.name];
  agg.count++;
  agg.total_ns += dur;
  agg.self_ns += self;

  if (tree_enabled_ && tree_stack_.size() > 1) {
    TreeNode* node = tree_stack_.back();
    tree_stack_.pop_back();
    node->count++;
    node->total_ns += dur;
    node->self_ns += self;
    for (const auto& [key, value] : span.args) {
      node->args[key] += value;
    }
  }

  TraceEvent event;
  event.ts_ns = span.start_ns;
  event.dur_ns = dur;
  event.self_ns = self;
  event.seq = span.seq;
  event.depth = static_cast<int>(stack_.size());
  event.name = std::move(span.name);
  event.args.assign(span.args.begin(), span.args.end());
  Push(std::move(event));
}

void Tracer::CompleteEvent(std::string name, uint64_t dur_ns,
                           std::vector<std::pair<std::string, int64_t>> args) {
  if (!stack_.empty()) {
    stack_.back().child_ns += dur_ns;
  }
  SpanStats& agg = stats_[name];
  agg.count++;
  agg.total_ns += dur_ns;
  agg.self_ns += dur_ns;  // leaves have no children

  if (tree_enabled_) {
    if (tree_stack_.empty()) {
      tree_stack_.push_back(&tree_root_);
    }
    TreeNode& node = tree_stack_.back()->children[name];
    node.count++;
    node.total_ns += dur_ns;
    node.self_ns += dur_ns;
    for (const auto& [key, value] : args) {
      node.args[key] += value;
    }
  }

  TraceEvent event;
  event.ts_ns = now_ns_;
  now_ns_ += dur_ns;
  event.dur_ns = dur_ns;
  event.self_ns = dur_ns;
  event.seq = seq_++;
  event.depth = static_cast<int>(stack_.size());
  event.name = std::move(name);
  event.args = std::move(args);
  Push(std::move(event));
}

void Tracer::Annotate(const char* key, int64_t delta) {
  if (stack_.empty()) {
    return;
  }
  stack_.back().args[key] += delta;
}

void Tracer::CountTaggedRead(std::string_view tag, uint64_t bytes) {
  auto it = reads_.by_tag.find(tag);
  if (it == reads_.by_tag.end()) {
    it = reads_.by_tag.emplace(std::string(tag), ReadStats::Tagged{}).first;
  }
  it->second.reads++;
  it->second.bytes += bytes;
}

Json ReadStats::ToJson() const {
  Json j = Json::Object();
  j["bytes"] = bytes.ToJson();
  j["latency_ns"] = latency_ns.ToJson();
  Json tags = Json::Object();
  for (const auto& [tag, counts] : by_tag) {
    Json t = Json::Object();
    t["reads"] = Json::Int(static_cast<int64_t>(counts.reads));
    t["bytes"] = Json::Int(static_cast<int64_t>(counts.bytes));
    tags[tag] = std::move(t);
  }
  j["by_type"] = std::move(tags);
  return j;
}

void Tracer::Push(TraceEvent event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_slot_] = std::move(event);
  next_slot_ = (next_slot_ + 1) % capacity_;
  dropped_++;
}

void Tracer::Clear() {
  stack_.clear();
  ring_.clear();
  next_slot_ = 0;
  dropped_ = 0;
  seq_ = 0;
  now_ns_ = 0;
  stats_.clear();
  reads_ = ReadStats{};
  ResetTree();
}

void Tracer::SetCapacity(size_t capacity) {
  capacity_ = std::max<size_t>(1, capacity);
  // Keep the newest events. Snapshot() yields oldest-first, so a shrink sheds
  // from the front; everything shed was recorded but is no longer
  // retrievable, which is exactly what dropped() counts.
  std::vector<TraceEvent> kept = Snapshot();
  if (kept.size() > capacity_) {
    dropped_ += kept.size() - capacity_;
    kept.erase(kept.begin(),
               kept.begin() + static_cast<ptrdiff_t>(kept.size() - capacity_));
  }
  ring_ = std::move(kept);
  // ring_ is now in oldest-first order, so slot 0 is the eviction point once
  // it fills back up to capacity.
  next_slot_ = 0;
}

void Tracer::ResetTree() {
  tree_root_ = TreeNode{};
  tree_stack_.clear();
  if (tree_enabled_) {
    tree_stack_.push_back(&tree_root_);
  }
}

void Tracer::SetTreeEnabled(bool on) {
  tree_enabled_ = on;
  if (on) {
    ResetTree();
  } else {
    tree_stack_.clear();  // freeze the tree; tree_root_ stays inspectable
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // next_slot_ is the oldest entry once the ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t Tracer::TotalSelfNanos() const {
  uint64_t total = 0;
  for (const auto& [name, agg] : stats_) {
    total += agg.self_ns;
  }
  return total;
}

Json Tracer::ToChromeJson() const {
  Json root = Json::Object();
  Json events = Json::Array();
  for (const TraceEvent& event : Snapshot()) {
    Json e = Json::Object();
    e["name"] = Json::Str(event.name);
    e["cat"] = Json::Str("vtrace");
    e["ph"] = Json::Str("X");
    e["ts"] = Json::Int(static_cast<int64_t>(event.ts_ns));
    e["dur"] = Json::Int(static_cast<int64_t>(event.dur_ns));
    e["pid"] = Json::Int(1);
    e["tid"] = Json::Int(1);
    Json args = Json::Object();
    args["seq"] = Json::Int(static_cast<int64_t>(event.seq));
    args["depth"] = Json::Int(event.depth);
    args["self_ns"] = Json::Int(static_cast<int64_t>(event.self_ns));
    for (const auto& [key, value] : event.args) {
      args[key] = Json::Int(value);
    }
    e["args"] = std::move(args);
    events.Append(std::move(e));
  }
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = Json::Str("ns");
  Json meta = Json::Object();
  meta["clock"] = Json::Str("virtual");
  meta["dropped"] = Json::Int(static_cast<int64_t>(dropped_));
  root["metadata"] = std::move(meta);
  return root;
}

namespace {

// Annotation args rolled up over the whole subtree (own + descendants), so a
// box node reports the read bytes and cache hit/miss split of everything
// instantiated under it.
std::map<std::string, int64_t> RollupArgs(const TreeNode& node) {
  std::map<std::string, int64_t> out = node.args;
  for (const auto& [name, child] : node.children) {
    for (const auto& [key, value] : RollupArgs(child)) {
      out[key] += value;
    }
  }
  return out;
}

Json TreeNodeToJson(const TreeNode& node) {
  Json j = Json::Object();
  j["count"] = Json::Int(static_cast<int64_t>(node.count));
  j["total_ns"] = Json::Int(static_cast<int64_t>(node.total_ns));
  j["self_ns"] = Json::Int(static_cast<int64_t>(node.self_ns));
  std::map<std::string, int64_t> args = RollupArgs(node);
  if (!args.empty()) {
    Json jargs = Json::Object();
    for (const auto& [key, value] : args) {
      jargs[key] = Json::Int(value);
    }
    j["args"] = std::move(jargs);
  }
  if (!node.children.empty()) {
    Json children = Json::Object();
    for (const auto& [name, child] : node.children) {
      children[name] = TreeNodeToJson(child);
    }
    j["children"] = std::move(children);
  }
  return j;
}

void TreeNodeToText(const std::string& name, const TreeNode& node, int depth,
                    std::string* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += name;
  if (line.size() < 40) {
    line.append(40 - line.size(), ' ');
  }
  *out += line;
  *out += StrFormat(" x%-6llu total %12llu ns  self %12llu ns",
                    static_cast<unsigned long long>(node.count),
                    static_cast<unsigned long long>(node.total_ns),
                    static_cast<unsigned long long>(node.self_ns));
  for (const auto& [key, value] : RollupArgs(node)) {
    *out += StrFormat("  %s=%lld", key.c_str(), static_cast<long long>(value));
  }
  *out += "\n";
  // Children by total time (desc), then name, for a deterministic order.
  std::vector<const std::pair<const std::string, TreeNode>*> kids;
  for (const auto& entry : node.children) {
    kids.push_back(&entry);
  }
  std::sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
    if (a->second.total_ns != b->second.total_ns) {
      return a->second.total_ns > b->second.total_ns;
    }
    return a->first < b->first;
  });
  for (const auto* kid : kids) {
    TreeNodeToText(kid->first, kid->second, depth + 1, out);
  }
}

}  // namespace

Json Tracer::TreeToJson() const {
  Json root = Json::Object();
  uint64_t total = 0;
  for (const auto& [name, child] : tree_root_.children) {
    total += child.total_ns;
  }
  root["total_ns"] = Json::Int(static_cast<int64_t>(total));
  Json children = Json::Object();
  for (const auto& [name, child] : tree_root_.children) {
    children[name] = TreeNodeToJson(child);
  }
  root["children"] = std::move(children);
  return root;
}

std::string Tracer::TreeText() const {
  std::string out;
  std::vector<const std::pair<const std::string, TreeNode>*> roots;
  for (const auto& entry : tree_root_.children) {
    roots.push_back(&entry);
  }
  std::sort(roots.begin(), roots.end(), [](const auto* a, const auto* b) {
    if (a->second.total_ns != b->second.total_ns) {
      return a->second.total_ns > b->second.total_ns;
    }
    return a->first < b->first;
  });
  for (const auto* root : roots) {
    TreeNodeToText(root->first, root->second, 0, &out);
  }
  return out;
}

std::string Tracer::ToFolded() const {
  std::vector<TraceEvent> events = Snapshot();
  // Events sorted by begin seq replay the nesting structure: an event at
  // depth d is a child of the most recent event seen at depth d-1.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.seq < b.seq; });
  std::map<std::string, uint64_t> folded;
  std::vector<std::string> stack;
  for (const TraceEvent& event : events) {
    size_t depth = event.depth < 0 ? 0 : static_cast<size_t>(event.depth);
    if (stack.size() > depth) {
      stack.resize(depth);
    }
    while (stack.size() < depth) {
      stack.push_back("?");  // ancestor evicted from the ring
    }
    stack.push_back(event.name);
    if (event.self_ns > 0) {
      std::string path;
      for (size_t i = 0; i < stack.size(); ++i) {
        if (i > 0) {
          path += ';';
        }
        path += stack[i];
      }
      folded[path] += event.self_ns;
    }
  }
  std::string out;
  for (const auto& [path, self_ns] : folded) {
    out += path;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(self_ns));
  }
  return out;
}

}  // namespace vl
