// Simulated kernel physical memory.
//
// Every object in the simulated kernel lives inside one fixed, non-moving byte
// arena, so an object reference *is* a stable address that the debugger layer
// can read back as raw bytes — exactly how GDB sees a live kernel. The arena
// never reallocates.
//
// The arena is an anonymous private mapping, so simulated RAM that is never
// touched never becomes resident. Its base sits 16 bytes past a 4 MiB
// boundary: 16 bytes into a host page, where glibc's operator new[] used to
// place it, so every object keeps its page offset and every figure reads the
// same 256 B blocks; and at a fixed offset modulo the largest buddy block, so
// the buddy allocator, which aligns blocks on absolute page frame numbers,
// lays out every kernel booted from one seed identically wherever mmap puts
// the mapping.
//
// Write log. Like KVM's dirty log for a guest, the arena can write-protect
// itself so that the first write to each host page after a sync faults once
// and is recorded (ArmWriteLog). A process-wide SIGSEGV handler services those
// faults: it makes the page writable again, and only then flags it as written.
// Every other fault goes to the previously installed action, so real crashes
// still crash. Once armed, the log stays armed for the arena's life.
//
// CollectWrites is the sync. It clears the written flags, stamps those pages
// with a new sequence number, and only then re-protects them; the caller
// rehashes the stamped pages after CollectWrites returns. A write that races a
// collection is therefore never lost: either it lands before the re-protect,
// and so before the caller's rehash, or it faults after it and is flagged for
// the next collection. That is the guarantee a full rescan gives.

#ifndef SRC_VKERN_ARENA_H_
#define SRC_VKERN_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace vkern {

inline constexpr size_t kPageSize = 4096;
inline constexpr size_t kPageShift = 12;

class Arena {
 public:
  // Size must be a multiple of the page size (4 KiB).
  explicit Arena(size_t size_bytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  size_t size() const { return size_; }

  uint64_t base_addr() const { return reinterpret_cast<uint64_t>(base_); }
  uint64_t end_addr() const { return base_addr() + size_; }

  // True if [addr, addr+len) lies wholly inside the arena.
  bool Contains(uint64_t addr, size_t len) const {
    return addr >= base_addr() && len <= size_ && addr - base_addr() <= size_ - len;
  }

  bool ContainsPtr(const void* ptr, size_t len = 1) const {
    return Contains(reinterpret_cast<uint64_t>(ptr), len);
  }

  void* AtAddr(uint64_t addr) { return base_ + (addr - base_addr()); }
  const void* AtAddr(uint64_t addr) const { return base_ + (addr - base_addr()); }

  // --- write log ---

  // Arms the write log unless it is already armed. Returns false if the log
  // is unavailable: installing the handler, registering the arena or
  // write-protecting it failed, now or earlier. The caller must then treat
  // every page as possibly written.
  bool ArmWriteLog();

  // Sequence number of the latest collection (0 before the first).
  uint64_t write_seq() const { return write_seq_.load(std::memory_order_acquire); }

  // Collects the writes logged since the previous collection, as the file
  // comment describes, and stores the new sequence number in `*seq`. Returns
  // false if the log is not armed or has lost writes (an mprotect failed);
  // the caller must then rehash every page.
  bool CollectWrites(uint64_t* seq);

  // Indices of the arena pages (kPageSize units, ascending) that share a
  // host page with a write some collection after `seq` found. Each host page
  // spans two arena pages, because of the 16-byte base offset. Meaningful
  // while the log is armed.
  std::vector<uint32_t> PagesWrittenSince(uint64_t seq) const;

 private:
  enum class LogState { kOff, kArmed, kUnavailable };

  bool ProtectHostPages(size_t first, size_t count, int prot);

  size_t size_;
  size_t host_page_;
  size_t host_pages_;        // host pages in the mapping
  uint8_t* map_ = nullptr;   // host-page-aligned start of the mapping
  uint8_t* base_ = nullptr;  // map_ + 16

  // Write log. The fault handler sets a host page's bit in `written_`;
  // `stamps_` holds the sequence number of each host page's latest
  // collected write.
  std::mutex log_mu_;  // serializes arming and collection
  LogState log_state_ = LogState::kOff;
  int slot_ = -1;  // this arena's entry in the registry of armed arenas
  std::unique_ptr<std::atomic<uint64_t>[]> written_;
  std::unique_ptr<std::atomic<uint64_t>[]> stamps_;
  std::atomic<uint64_t> write_seq_{0};
  std::atomic<bool> lost_{false};
};

}  // namespace vkern

#endif  // SRC_VKERN_ARENA_H_
