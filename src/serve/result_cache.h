// Shard-level refresh result cache — the dedup half of vserve.
//
// A refresh of (program + ViewQL history, kernel epoch, render backend) is
// deterministic: the virtual machine doesn't move between epochs, so two
// sessions asking for the same figure at the same epoch would charge the
// virtual clock twice for byte-identical output. The shard keeps a small LRU
// of completed ServeResults keyed by exactly that tuple; concurrent
// duplicates coalesce on it (the first requester extracts under the shard
// lock and inserts; everyone queued behind finds the entry and is charged
// nothing). Epochs are part of the key, so stale entries age out by LRU
// pressure rather than explicit invalidation.

#ifndef SRC_SERVE_RESULT_CACHE_H_
#define SRC_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/support/json.h"

namespace vserve {

// What one served refresh produced. `sequence` is the server-wide completion
// order (monotonic across all sessions); `deduped` marks results served from
// the shard result cache instead of a fresh extraction.
struct ServeResult {
  std::string render;        // pane output in the requested backend
  size_t boxes = 0;          // graph size after the refresh
  uint64_t epoch = 0;        // kernel mutation epoch observed
  uint64_t refresh_ns = 0;   // virtual ns charged to THIS session (0 if deduped)
  uint64_t sequence = 0;     // server-wide completion counter
  bool deduped = false;
  bool render_reused = false;  // render digest cache hit inside the extraction
  std::vector<std::string> violations;  // budget keys flagged by the watchdog
  // Flight-recorder identity: this refresh's request id (0 when the recorder
  // is off) and — for deduped results — the id of the extracting request
  // whose cached output was served (the dedup leader).
  uint64_t request_id = 0;
  uint64_t leader_request_id = 0;
};

// Bounded LRU of ServeResults. Not internally synchronized — the owning
// shard guards it with its cache mutex.
class ResultCache {
 public:
  // Results kept per shard: the dedup window.
  static constexpr size_t kCapacity = 256;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  // Returns the cached result (refreshing its LRU position) or null.
  const ServeResult* Find(const std::string& key);
  // Inserts (or replaces) `key`, evicting the least recently used entry when
  // over capacity.
  void Insert(const std::string& key, ServeResult result);
  void Clear();
  // Zeroes the counters without touching cached entries (Server::ResetStats:
  // results stay servable, ratios restart).
  void ResetStats() { stats_ = Stats{}; }

  size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }
  vl::Json StatsToJson() const;

 private:
  struct Entry {
    std::string key;
    ServeResult result;
  };

  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  Stats stats_;
};

}  // namespace vserve

#endif  // SRC_SERVE_RESULT_CACHE_H_
