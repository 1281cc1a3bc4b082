#include "src/vkern/page_journal.h"

#include <cstring>

namespace vkern {

namespace {

// SplitMix64 finalizer (same constants as vl::Rng) folded over the page's
// 64-bit words: deterministic, seed-free, and cheap enough to hash the whole
// arena in one pass at attach.
inline uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashPage(const uint8_t* page) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < kPageSize; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, page + i, sizeof(word));
    h = Mix(h ^ (word + 0x9e3779b97f4a7c15ull));
  }
  return h;
}

}  // namespace

PageJournal::PageJournal(Arena* arena, uint64_t generation)
    : arena_(arena),
      scanned_gen_(generation),
      logged_(arena->ArmWriteLog()),
      cursor_(arena->write_seq()) {
  // Armed before hashing: a write after this point is in the write log.
  size_t pages = arena_->size() / kPageSize;  // arena size is page-aligned
  hashes_.resize(pages);
  last_changed_.assign(pages, generation);
  for (size_t p = 0; p < pages; ++p) {
    hashes_[p] = HashPage(arena_->base() + p * kPageSize);
  }
  scans_ = 1;
  pages_hashed_ = pages;
}

void PageJournal::Rescan(uint64_t current_generation) {
  uint64_t seq = 0;
  logged_ = logged_ && arena_->CollectWrites(&seq);
  auto rehash = [&](size_t p) {
    uint64_t h = HashPage(arena_->base() + p * kPageSize);
    if (h != hashes_[p]) {
      hashes_[p] = h;
      last_changed_[p] = current_generation;
    }
    pages_hashed_++;
  };
  if (logged_) {
    for (uint32_t p : arena_->PagesWrittenSince(cursor_)) {
      rehash(p);
    }
  } else {
    for (size_t p = 0; p < hashes_.size(); ++p) {
      rehash(p);
    }
  }
  cursor_ = seq;
  scanned_gen_ = current_generation;
  scans_++;
}

std::vector<uint32_t> PageJournal::DirtyPagesSince(uint64_t since_generation,
                                                   uint64_t current_generation) {
  if (current_generation != scanned_gen_) {
    Rescan(current_generation);
  }
  std::vector<uint32_t> dirty;
  for (size_t p = 0; p < last_changed_.size(); ++p) {
    if (last_changed_[p] > since_generation) {
      dirty.push_back(static_cast<uint32_t>(p));
    }
  }
  return dirty;
}

}  // namespace vkern
