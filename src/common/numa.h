#pragma once
// Minimal NUMA helpers for the entry-pool arenas (core/entry_pool.h) and
// the slab source's per-node chunks (core/slab_source.h).
//
// No libnuma dependency: the node count comes from sysfs and the binding
// is a raw mbind(2) syscall, compiled in only where the kernel headers are
// present. Everything degrades to a no-op — on non-Linux, on single-node
// machines, or when mbind fails (EPERM in restricted containers) the chunk
// stays wherever first-touch put it, which is the right placement anyway
// because pooled blocks are constructed on the acquiring (shard-affine)
// thread.

#include <cstddef>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#if __has_include(<linux/mempolicy.h>)
#include <linux/mempolicy.h>
#include <sys/syscall.h>
#define BREF_HAVE_MBIND 1
#endif
#endif

namespace bref {

/// Number of NUMA nodes with memory, per sysfs; 1 when undeterminable.
/// Cached after the first call (the topology does not change).
inline int numa_node_count() noexcept {
  static const int count = [] {
#if defined(__linux__)
    DIR* d = ::opendir("/sys/devices/system/node");
    if (d == nullptr) return 1;
    int n = 0;
    while (dirent* e = ::readdir(d)) {
      const char* name = e->d_name;
      if (name[0] == 'n' && name[1] == 'o' && name[2] == 'd' &&
          name[3] == 'e' && name[4] >= '0' && name[4] <= '9')
        ++n;
    }
    ::closedir(d);
    return n > 0 ? n : 1;
#else
    return 1;
#endif
  }();
  return count;
}

/// Best-effort: prefer placing `[p, p+len)` on `node`. Call before the
/// memory is first touched; errors (and node < 0) are ignored — see the
/// header comment for why the fallback is already correct.
inline void numa_bind_memory(void* p, size_t len, int node) noexcept {
#ifdef BREF_HAVE_MBIND
  if (node < 0 || node >= numa_node_count()) return;
  unsigned long mask = 1ul << node;
  (void)::syscall(__NR_mbind, p, len, MPOL_PREFERRED, &mask,
                  sizeof(mask) * 8, 0);
#else
  (void)p, (void)len, (void)node;
#endif
}

}  // namespace bref
