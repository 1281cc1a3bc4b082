// Deterministic hierarchical span tracing for the extract→query→render
// pipeline.
//
// Spans are stamped with *virtual* time, never wall-clock time, and the
// tracer keeps that time itself, as rr counts the traced execution's own
// retired branches: it is the sum of the charges recorded since Clear().
// Every nanosecond a Target charges reaches the tracer as a leaf event, so a
// span's duration is exactly what was charged inside it, whichever Target
// charged, and two identical runs produce byte-identical traces. Completed
// spans land in a bounded ring buffer (oldest evicted first); per-name
// aggregates (count, total, self time) are kept separately and never
// evicted. The tracer also owns the read statistics that exist only while
// tracing: read-size and latency histograms and per-tag read counts.
//
// The fast path when tracing is off is a single relaxed atomic flag load:
//
//   if (tracer->enabled()) { ...slow path... }
//
// Self time is computed at record time: every open span accumulates the
// duration of its direct children, and EndSpan charges `dur - children` to the
// span's own name. Summed over all spans, self times exactly partition the
// root spans' durations — which is how `vprof` and `vctrl explain` reconcile
// their attribution trees against Target::clock() to the nanosecond.

#ifndef SRC_SUPPORT_TRACE_H_
#define SRC_SUPPORT_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/histogram.h"
#include "src/support/json.h"

namespace vl {

// One completed span, as stored in the ring buffer.
struct TraceEvent {
  std::string name;
  uint64_t ts_ns = 0;    // virtual time at span begin (ns recorded since Clear)
  uint64_t dur_ns = 0;   // virtual duration
  uint64_t self_ns = 0;  // dur_ns minus direct children
  uint64_t seq = 0;      // sequence number assigned at begin (total order)
  int depth = 0;         // nesting depth at begin (0 = root)
  std::vector<std::pair<std::string, int64_t>> args;
};

// Per-name aggregate, never evicted.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

// One node of the calling-context tree built in tree mode: spans with the
// same name under the same ancestor path merge into one node, so the tree
// stays bounded no matter how many reads a refresh issues. `args` holds the
// node's own annotation sums (e.g. cache.hit_bytes); serialization rolls
// descendants' args up so every node carries its subtree's bytes and
// hit/miss split.
struct TreeNode {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::map<std::string, int64_t> args;
  std::map<std::string, TreeNode> children;
};

// Reads recorded while tracing (dbg::Target's slow path). A vectored batch
// is one read in the histograms; its spans count under their own tags.
// Cleared with the trace (Tracer::Clear), never by a per-object reset.
struct ReadStats {
  struct Tagged {
    uint64_t reads = 0;
    uint64_t bytes = 0;
  };
  Histogram bytes;       // bytes per read
  Histogram latency_ns;  // virtual charge per read
  std::map<std::string, Tagged, std::less<>> by_tag;

  // {"bytes": histogram, "latency_ns": histogram,
  //  "by_type": {tag: {"reads", "bytes"}}} (histograms as Histogram::ToJson).
  Json ToJson() const;
};

class Tracer {
 public:
  static Tracer& Instance();

  // --- control ---
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // The raw flag, for instrumentation sites that cache a pointer to avoid the
  // function-local-static guard on every check (the Target read fast path).
  const std::atomic<bool>* enabled_flag() const { return &enabled_; }
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  // Virtual time: the sum of the durations CompleteEvent recorded since the
  // last Clear(). Spans begin and end at it.
  uint64_t NowNanos() const { return now_ns_; }

  // --- recording ---
  void BeginSpan(std::string name);
  void EndSpan();
  // Records a charge as a leaf span (e.g. one dbg.read, whose duration is the
  // charge it put on its Target's clock): stamped with the current time,
  // which it then advances by `dur_ns`. Attributed as a child of the open
  // span.
  void CompleteEvent(std::string name, uint64_t dur_ns,
                     std::vector<std::pair<std::string, int64_t>> args = {});
  // Accumulates `delta` into the innermost open span's `key` argument (a
  // no-op with no open span). ReadSession uses this to attribute cache
  // hit/miss bytes to whatever the pipeline was doing at the time.
  void Annotate(const char* key, int64_t delta);
  // Read statistics: one read of `bytes` that charged `latency_ns`, and the
  // bytes of one span read under `tag`.
  void RecordRead(uint64_t bytes, uint64_t latency_ns) {
    reads_.bytes.Record(bytes);
    reads_.latency_ns.Record(latency_ns);
  }
  void CountTaggedRead(std::string_view tag, uint64_t bytes);

  // Drops all events, aggregates, read statistics, open spans, and the
  // attribution tree; resets the sequence counter and the virtual time. Does
  // not touch the enabled flag or tree mode.
  void Clear();
  // Resizes the ring. The newest min(buffered, capacity) events survive in
  // order; events shed by a shrink count toward dropped().
  void SetCapacity(size_t capacity);

  // --- attribution tree (vexplain) ---
  // While tree mode is on, every recorded span/leaf also merges into a
  // calling-context tree keyed by the span-name path. Enabling resets the
  // tree; disabling freezes it for inspection. Toggle only while no spans
  // are open (e.g. right after Clear()) or paths will misattribute. The
  // ring, the per-name aggregates and the read statistics are left alone, so
  // a command can attribute its own run without dropping the user's trace.
  void SetTreeEnabled(bool on);
  bool tree_enabled() const { return tree_enabled_; }
  const TreeNode& tree_root() const { return tree_root_; }
  // Deterministic serializations of the tree. Each node carries count,
  // total_ns, self_ns, and rolled-up annotation args (own + descendants);
  // children are keyed by span name in sorted order.
  Json TreeToJson() const;
  // Indented text rendering, children sorted by total time (desc) then name.
  std::string TreeText() const;

  // --- inspection ---
  size_t open_spans() const { return stack_.size(); }
  uint64_t dropped() const { return dropped_; }
  uint64_t recorded() const { return seq_; }
  // Buffered events, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  const std::map<std::string, SpanStats>& stats() const { return stats_; }
  const ReadStats& read_stats() const { return reads_; }
  // Sum of self times across all completed spans == sum of root durations.
  uint64_t TotalSelfNanos() const;

  // --- exporters ---
  // Chrome trace_event JSON (chrome://tracing / Perfetto). Timestamps are
  // virtual nanoseconds recorded since the last Clear(), emitted as integer
  // `ts`/`dur` fields.
  Json ToChromeJson() const;
  // Folded-stack flamegraph lines ("root;child;leaf self_ns\n", sorted) from
  // the buffered ring. Stacks are reconstructed from begin order + depth;
  // ancestors evicted from the ring appear as "?" frames.
  std::string ToFolded() const;

 private:
  Tracer() { ring_.reserve(kDefaultCapacity); }

  static constexpr size_t kDefaultCapacity = 1 << 16;

  struct OpenSpan {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t seq = 0;
    uint64_t child_ns = 0;
    std::map<std::string, int64_t> args;  // Annotate() accumulations
  };

  void Push(TraceEvent event);
  void ResetTree();

  std::atomic<bool> enabled_{false};
  uint64_t now_ns_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<TraceEvent> ring_;  // circular once size() == capacity_
  size_t capacity_ = kDefaultCapacity;
  size_t next_slot_ = 0;
  uint64_t dropped_ = 0;
  uint64_t seq_ = 0;
  std::map<std::string, SpanStats> stats_;
  ReadStats reads_;
  bool tree_enabled_ = false;
  TreeNode tree_root_;
  // Mirrors stack_ while tree mode is on; front is always &tree_root_.
  // Map nodes are address-stable, so raw pointers stay valid as siblings
  // are inserted.
  std::vector<TreeNode*> tree_stack_;
};

// RAII span. Captures the enabled flag at construction so a toggle mid-span
// cannot unbalance the tracer's stack.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : active_(Tracer::Instance().enabled()) {
    if (active_) {
      Tracer::Instance().BeginSpan(name);
    }
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer::Instance().EndSpan();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

// RAII span with a computed name (e.g. "viewcl.box.task_struct"). Callers
// should gate construction on Tracer::enabled() so the name string is never
// built when tracing is off.
class ScopedNamedSpan {
 public:
  explicit ScopedNamedSpan(std::string name) : active_(Tracer::Instance().enabled()) {
    if (active_) {
      Tracer::Instance().BeginSpan(std::move(name));
    }
  }
  ~ScopedNamedSpan() {
    if (active_) {
      Tracer::Instance().EndSpan();
    }
  }
  ScopedNamedSpan(const ScopedNamedSpan&) = delete;
  ScopedNamedSpan& operator=(const ScopedNamedSpan&) = delete;

 private:
  bool active_;
};

}  // namespace vl

#endif  // SRC_SUPPORT_TRACE_H_
