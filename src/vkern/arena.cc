#include "src/vkern/arena.h"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <new>

namespace vkern {

namespace {

// Where glibc's operator new[] placed a fresh mapping's first byte (arena.h).
constexpr size_t kBaseOffset = 16;
// The largest buddy block (MAX_ORDER - 1 = 10 orders of 4 KiB pages): the
// mapping starts on a multiple of it (arena.h).
constexpr size_t kPlacementAlign = size_t{4} << 20;

size_t HostPageSize() {
  static const size_t size = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return size;
}

// --- the registry of armed arenas -------------------------------------------
//
// A fixed table the fault handler reads without locks or allocation. Each
// slot is a seqlock: arming and ~Arena keep `seq` odd while they rewrite the
// slot, so the handler never matches a fault against a half-written range.

struct LogSlot {
  std::atomic<bool> taken{false};
  std::atomic<uint64_t> seq{0};
  std::atomic<uintptr_t> begin{0};  // the arena's mapping
  std::atomic<uintptr_t> end{0};
  std::atomic<std::atomic<uint64_t>*> written{nullptr};
  std::atomic<std::atomic<bool>*> lost{nullptr};
};

constexpr int kMaxArmedArenas = 256;
LogSlot g_slots[kMaxArmedArenas];
std::atomic<int> g_slots_used{0};  // slots [0, used) were ever taken

struct sigaction g_previous_action;

int ClaimSlot() {
  for (int i = 0; i < kMaxArmedArenas; ++i) {
    bool expected = false;
    if (g_slots[i].taken.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
      int used = g_slots_used.load(std::memory_order_relaxed);
      while (used <= i && !g_slots_used.compare_exchange_weak(used, i + 1)) {
      }
      return i;
    }
  }
  return -1;
}

void PublishSlot(LogSlot& slot, uintptr_t begin, uintptr_t end,
                 std::atomic<uint64_t>* written, std::atomic<bool>* lost) {
  // Release stores: a reader that sees any new field also sees the odd seq.
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);
  slot.begin.store(begin, std::memory_order_release);
  slot.end.store(end, std::memory_order_release);
  slot.written.store(written, std::memory_order_release);
  slot.lost.store(lost, std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
}

void ReleaseSlot(int index) {
  PublishSlot(g_slots[index], 0, 0, nullptr, nullptr);
  g_slots[index].taken.store(false, std::memory_order_release);
}

// Services a write fault on an armed arena: makes the host page writable
// again, and only then flags it as written, so a collection that re-protects
// the page in between cannot leave it writable and unflagged. (It flags the
// page before unprotecting it too, so a write another thread makes through
// the unprotected page cannot precede the flag.) Returns false for a fault
// the write log does not own.
bool LogWrite(uintptr_t addr) {
  const size_t host_page = HostPageSize();
  const int used = g_slots_used.load(std::memory_order_acquire);
  for (int i = 0; i < used; ++i) {
    LogSlot& slot = g_slots[i];
    uint64_t seq = slot.seq.load(std::memory_order_acquire);
    uintptr_t begin = slot.begin.load(std::memory_order_acquire);
    uintptr_t end = slot.end.load(std::memory_order_acquire);
    std::atomic<uint64_t>* written = slot.written.load(std::memory_order_acquire);
    std::atomic<bool>* lost = slot.lost.load(std::memory_order_acquire);
    if ((seq & 1) != 0 || slot.seq.load(std::memory_order_relaxed) != seq ||
        addr < begin || addr >= end) {
      continue;
    }
    uintptr_t page = addr & ~(host_page - 1);
    size_t index = (page - begin) / host_page;
    std::atomic<uint64_t>& word = written[index / 64];
    const uint64_t bit = uint64_t{1} << (index % 64);
    word.fetch_or(bit, std::memory_order_release);
    if (mprotect(reinterpret_cast<void*>(page), host_page, PROT_READ | PROT_WRITE) == 0) {
      word.fetch_or(bit, std::memory_order_release);
      return true;
    }
    // Out of kernel mappings (every unprotected page can split one): stop
    // logging this arena rather than fail the write.
    if (mprotect(reinterpret_cast<void*>(begin), end - begin, PROT_READ | PROT_WRITE) == 0) {
      lost->store(true, std::memory_order_release);
      return true;
    }
    return false;
  }
  return false;
}

void OnSegv(int sig, siginfo_t* info, void* context) {
  const int saved_errno = errno;
  const bool logged =
      info->si_code == SEGV_ACCERR && LogWrite(reinterpret_cast<uintptr_t>(info->si_addr));
  errno = saved_errno;
  if (logged) {
    return;
  }
  const struct sigaction& previous = g_previous_action;
  if ((previous.sa_flags & SA_SIGINFO) != 0) {
    previous.sa_sigaction(sig, info, context);
  } else if (previous.sa_handler != SIG_DFL && previous.sa_handler != SIG_IGN) {
    previous.sa_handler(sig);
  } else {
    // Restore the default action: the faulting access runs again on return
    // and the kernel delivers it fatally.
    struct sigaction fatal = {};
    fatal.sa_handler = SIG_DFL;
    sigemptyset(&fatal.sa_mask);
    sigaction(sig, &fatal, nullptr);
  }
}

bool InstallFaultHandler() {
  static const bool installed = [] {
    struct sigaction action = {};
    action.sa_sigaction = OnSegv;
    action.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    return sigaction(SIGSEGV, &action, &g_previous_action) == 0;
  }();
  return installed;
}

}  // namespace

Arena::Arena(size_t size_bytes)
    : size_(size_bytes),
      host_page_(HostPageSize()),
      host_pages_((kBaseOffset + size_bytes + host_page_ - 1) / host_page_) {
  assert(size_bytes % kPageSize == 0 && "arena size must be page aligned");
  // Over-map by one alignment unit, then trim both ends so the mapping
  // starts on a kPlacementAlign boundary.
  size_t len = host_pages_ * host_page_;
  void* map = mmap(nullptr, len + kPlacementAlign, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map == MAP_FAILED) {
    throw std::bad_alloc();
  }
  uintptr_t raw = reinterpret_cast<uintptr_t>(map);
  uintptr_t start = (raw + kPlacementAlign - 1) & ~uintptr_t{kPlacementAlign - 1};
  if (start > raw) {
    munmap(map, start - raw);
  }
  size_t tail = raw + len + kPlacementAlign - (start + len);
  if (tail > 0) {
    munmap(reinterpret_cast<void*>(start + len), tail);
  }
  map_ = reinterpret_cast<uint8_t*>(start);
  base_ = map_ + kBaseOffset;
}

Arena::~Arena() {
  if (slot_ >= 0) {
    ReleaseSlot(slot_);
  }
  munmap(map_, host_pages_ * host_page_);
}

bool Arena::ProtectHostPages(size_t first, size_t count, int prot) {
  return mprotect(map_ + first * host_page_, count * host_page_, prot) == 0;
}

bool Arena::ArmWriteLog() {
  std::lock_guard<std::mutex> lock(log_mu_);
  if (log_state_ == LogState::kOff) {
    log_state_ = LogState::kUnavailable;
    if (!InstallFaultHandler() || (slot_ = ClaimSlot()) < 0) {
      return false;
    }
    written_ = std::make_unique<std::atomic<uint64_t>[]>((host_pages_ + 63) / 64);
    stamps_ = std::make_unique<std::atomic<uint64_t>[]>(host_pages_);
    uintptr_t begin = reinterpret_cast<uintptr_t>(map_);
    PublishSlot(g_slots[slot_], begin, begin + host_pages_ * host_page_, written_.get(), &lost_);
    if (!ProtectHostPages(0, host_pages_, PROT_READ)) {
      ProtectHostPages(0, host_pages_, PROT_READ | PROT_WRITE);
      ReleaseSlot(slot_);
      slot_ = -1;
      return false;
    }
    log_state_ = LogState::kArmed;
  }
  return log_state_ == LogState::kArmed && !lost_.load(std::memory_order_acquire);
}

bool Arena::CollectWrites(uint64_t* seq) {
  std::lock_guard<std::mutex> lock(log_mu_);
  if (log_state_ != LogState::kArmed || lost_.load(std::memory_order_acquire)) {
    return false;
  }
  const uint64_t next = write_seq_.load(std::memory_order_relaxed) + 1;
  bool protected_all = true;
  size_t run_begin = 0;  // the current run of written pages: [run_begin, run_end)
  size_t run_end = 0;
  auto protect_run = [&] {
    if (run_end > run_begin) {
      protected_all = ProtectHostPages(run_begin, run_end - run_begin, PROT_READ) && protected_all;
    }
  };
  for (size_t w = 0; w < (host_pages_ + 63) / 64; ++w) {
    if (written_[w].load(std::memory_order_relaxed) == 0) {
      continue;
    }
    for (uint64_t bits = written_[w].exchange(0, std::memory_order_acq_rel); bits != 0;
         bits &= bits - 1) {
      size_t h = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      stamps_[h].store(next, std::memory_order_relaxed);
      if (h != run_end) {
        protect_run();
        run_begin = h;
      }
      run_end = h + 1;
    }
  }
  protect_run();
  if (!protected_all) {
    // A page left writable would take writes unseen: stop logging for good.
    ProtectHostPages(0, host_pages_, PROT_READ | PROT_WRITE);
    lost_.store(true, std::memory_order_release);
  }
  write_seq_.store(next, std::memory_order_release);
  *seq = next;
  return !lost_.load(std::memory_order_acquire);
}

std::vector<uint32_t> Arena::PagesWrittenSince(uint64_t seq) const {
  std::vector<uint32_t> pages;
  for (size_t h = 0; h < host_pages_; ++h) {
    if (stamps_[h].load(std::memory_order_relaxed) <= seq) {
      continue;
    }
    // The arena bytes on host page h: [begin, end).
    size_t begin = h * host_page_ > kBaseOffset ? h * host_page_ - kBaseOffset : 0;
    size_t end = std::min((h + 1) * host_page_ - kBaseOffset, size_);
    for (size_t p = begin / kPageSize; p * kPageSize < end; ++p) {
      if (pages.empty() || pages.back() < p) {
        pages.push_back(static_cast<uint32_t>(p));
      }
    }
  }
  return pages;
}

}  // namespace vkern
