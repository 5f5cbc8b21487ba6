#ifndef FCBENCH_UTIL_ALLOC_POLICY_H_
#define FCBENCH_UTIL_ALLOC_POLICY_H_

namespace fcbench {

/// Sets the process's glibc allocator thresholds for the storage engine,
/// once (later calls do nothing): M_MMAP_THRESHOLD = 32 MiB and
/// M_TRIM_THRESHOLD = 64 MiB.
///
/// A scan allocates several multi-MB vectors (per-shard column reads,
/// their concatenation, a filter's selection) and frees them before the
/// next scan. Under glibc's default dynamic thresholds each freed buffer
/// goes back to the kernel, so the next scan maps and zero-fills the
/// same pages again: thousands of minor faults per scan. With fixed
/// thresholds a freed buffer under 32 MiB stays in its arena and the
/// next scan reuses it.
///
/// A no-op where glibc is not the allocator; ASan and TSan replace
/// malloc and ignore the setting. lsm::IngestEngine::Open calls it, so
/// processes that only run codecs keep glibc's defaults.
void ApplyEngineAllocatorPolicy();

}  // namespace fcbench

#endif  // FCBENCH_UTIL_ALLOC_POLICY_H_
