// Page-hash journal over an Arena: the dirty-page log primitive behind
// incremental refresh (docs/caching.md#incremental-invalidation).
//
// QEMU's live-migration dirty log flags guest pages written since the last
// sync; debuggers can query it instead of re-reading everything. The journal
// keeps a content hash per 4 KiB page and, at most once per generation,
// rehashes the pages the arena's write log (arena.h) saw written since its
// previous scan, stamping pages whose hash moved with the scanning
// generation. Where the write log is unavailable it rehashes every page; the
// answers are the same either way. Writes that landed between two scans are
// attributed to the later scan's generation — conservative (a page is never
// reported clean while holding unseen writes), which is exactly what cache
// invalidation and memoization need.

#ifndef SRC_VKERN_PAGE_JOURNAL_H_
#define SRC_VKERN_PAGE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/vkern/arena.h"

namespace vkern {

class PageJournal {
 public:
  // Arms the arena's write log, then baselines every page's hash at
  // `generation`. Every page starts marked "changed at `generation`", so a
  // first query against an older epoch degenerates to all-dirty (safe)
  // rather than all-clean (wrong).
  PageJournal(Arena* arena, uint64_t generation);

  PageJournal(const PageJournal&) = delete;
  PageJournal& operator=(const PageJournal&) = delete;

  // Indices of pages whose content changed after `since_generation`
  // (page base = arena base + index * kPageSize; the arena base itself need
  // not be host-page-aligned, pages are arena-relative). Lazily rescans when
  // `current_generation` differs from the last scanned generation, so
  // repeated queries within one generation are free.
  std::vector<uint32_t> DirtyPagesSince(uint64_t since_generation,
                                        uint64_t current_generation);

  size_t page_count() const { return last_changed_.size(); }
  // Generation the page hashes are current for.
  uint64_t scanned_generation() const { return scanned_gen_; }
  // Generation at which `page` was last seen to change (the baseline
  // generation if it never changed under this journal).
  uint64_t last_changed(size_t page) const { return last_changed_[page]; }

  // Host-side scan work: scans run (the attach baseline counts as one) and
  // pages hashed in total (the baseline hashes every page; a rescan hashes
  // the pages written since the previous scan, or every page where the
  // write log is unavailable).
  uint64_t scans() const { return scans_; }
  uint64_t pages_hashed() const { return pages_hashed_; }

 private:
  void Rescan(uint64_t current_generation);

  Arena* arena_;
  uint64_t scanned_gen_;
  bool logged_;      // rescans may trust the arena's write log
  uint64_t cursor_;  // the write log's sequence number at the last scan
  std::vector<uint64_t> hashes_;        // per-page content hash
  std::vector<uint64_t> last_changed_;  // per-page last-changed generation
  uint64_t scans_ = 0;
  uint64_t pages_hashed_ = 0;
};

}  // namespace vkern

#endif  // SRC_VKERN_PAGE_JOURNAL_H_
