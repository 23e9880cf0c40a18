#pragma once
// Where pool slabs come from (core/entry_pool.h): never-freed memory carved
// out of 2 MiB-aligned anonymous mappings advised MADV_HUGEPAGE.
//
// Every bundle-entry hop and every skip-list hop is a dependent load, and
// once the structure outgrows the cache each one misses the TLB as well as
// the cache. Backing the pools with huge pages cuts the page walk out of
// most of those misses; carving slabs back to back out of one chunk (rather
// than one heap block each) also drops the allocator's per-block header.
//
//   * The source maps one 2 MiB chunk at a time and bump-allocates slabs
//     out of it through one cursor, so the resident tail beyond what the
//     pools use is at most one chunk. A slab that does not fit the rest of
//     the chunk starts a new chunk; the leftover (less than one slab) is
//     abandoned. NUMA placement is the kernel's first-touch default.
//   * Chunks are never unmapped, just as slabs were never freed: a pooled
//     object's memory must stay valid for the life of the process.
//   * The kernel's transparent-huge-page policy is the only switch. Under
//     `never`, or on a kernel built without THP (madvise fails with
//     EINVAL), the same code runs on 4 KiB pages.
//
// Under AddressSanitizer every chunk is registered as a LeakSanitizer root
// region: LSan does not scan anonymous mappings, so a heap object whose only
// pointer sits in pooled memory (a sentinel's `Bundle::init` entry behind a
// pooled entry's `next`) would otherwise be reported as leaked.

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>

#include "common/cacheline.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define BREF_SLAB_SOURCE_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BREF_SLAB_SOURCE_LSAN 1
#endif
#endif
#ifdef BREF_SLAB_SOURCE_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace bref {

class SlabSource {
 public:
  static constexpr size_t kChunkBytes = size_t{2} << 20;

  struct Stats {
    uint64_t chunks = 0;    // mappings made (never unmapped)
    int madvise_errno = 0;  // last MADV_HUGEPAGE failure; 0 = none failed
  };

  /// Leaky singleton, like the pools it feeds.
  static SlabSource& instance() {
    static auto* src = new SlabSource();
    return *src;
  }

  /// `bytes` of never-freed, cache-line-aligned memory. Throws
  /// std::bad_alloc when the kernel refuses a mapping.
  void* allocate(size_t bytes) {
    bytes = round_up(bytes, kCacheLine);
    std::lock_guard<std::mutex> g(lock_);
    if (static_cast<size_t>(end_ - pos_) < bytes) {
      const size_t len = round_up(bytes, kChunkBytes);
      pos_ = map_chunk(len);
      end_ = pos_ + len;
    }
    void* p = pos_;
    pos_ += bytes;
    return p;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> g(lock_);
    return stats_;
  }

  SlabSource(const SlabSource&) = delete;
  SlabSource& operator=(const SlabSource&) = delete;

 private:
  SlabSource() = default;

  static constexpr size_t round_up(size_t n, size_t to) {
    return (n + to - 1) / to * to;
  }

  /// Map `len` bytes (a multiple of kChunkBytes) at a kChunkBytes-aligned
  /// address: over-map by one chunk and trim both ends.
  char* map_chunk(size_t len) {
#if defined(__linux__)
    const size_t span = len + kChunkBytes;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
    const uintptr_t aligned = round_up(base, kChunkBytes);
    if (aligned != base) ::munmap(raw, aligned - base);
    const uintptr_t end = aligned + len;
    if (end != base + span)
      ::munmap(reinterpret_cast<void*>(end), base + span - end);
    char* chunk = reinterpret_cast<char*>(aligned);
    const int advice = ::madvise(chunk, len, MADV_HUGEPAGE) == 0 ? 0 : errno;
#else
    char* chunk = static_cast<char*>(
        ::operator new(len, std::align_val_t(kChunkBytes)));
    const int advice = 0;
#endif
#ifdef BREF_SLAB_SOURCE_LSAN
    __lsan_register_root_region(chunk, len);
#endif
    ++stats_.chunks;
    if (advice != 0) stats_.madvise_errno = advice;
    return chunk;
  }

  mutable std::mutex lock_;  // guards the cursor and stats_
  char* pos_ = nullptr;
  char* end_ = nullptr;
  Stats stats_;
};

}  // namespace bref
