#include "util/alloc_policy.h"

#include <mutex>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace fcbench {

void ApplyEngineAllocatorPolicy() {
#ifdef __GLIBC__
  // 32 MiB is glibc's own 64-bit ceiling for its dynamic mmap threshold:
  // larger requests still get their own mapping, which free releases.
  // The trim threshold bounds the free memory an arena keeps at its top.
  // Setting either value turns glibc's dynamic thresholds off, so the
  // other one must be set too.
  constexpr int kMmapThreshold = 32 << 20;
  constexpr int kTrimThreshold = 64 << 20;
  static std::once_flag once;
  std::call_once(once, [] {
    mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
    mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
  });
#endif
}

}  // namespace fcbench
