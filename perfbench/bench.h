#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared declarations of the benchmark runner: the run configuration,
// operation accounting, per-cycle results and the two kinds of work a
// run does — end-to-end cycles of a workload, and the standalone replay
// of the workload's inputs into each layer (traced run only).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "trace.h"

namespace perfbench {

/// At most this many writer or reader threads; the shared pool is capped
/// at two more through FCBENCH_THREADS, so a run never has more runnable
/// threads than a 4-core host.
inline constexpr size_t kLoadThreads = 2;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for engine files; emptied at start and exit.
  std::string workdir;
};

/// Operations attempted and failed. A failed operation is a call that
/// returned an error (kOverloaded and deadline refusals included) or a
/// correctness check that did not hold.
class Outcome {
 public:
  /// Counts one operation; `ok` false counts it failed and logs `what`.
  void Op(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

/// The end-to-end measurements of one cycle: set-up, then the timed
/// write phase, then the timed read phase.
struct CycleResult {
  double setup_s = 0;
  double write_bytes = 0;
  double write_s = 0;  // wall time of the write phase
  double read_bytes = 0;
  double read_s = 0;  // wall time of the read phase
  double stored_bytes = 0;
  double user_bytes = 0;
  std::vector<double> write_us;  // one sample per write operation
  std::vector<double> read_ms;   // one sample per read operation
};

/// Shape of an ingest workload's cycle.
struct IngestShape {
  size_t batches;
  size_t batch_rows;
  bool sync_on_commit;
  /// Scan queries per cycle, split over kLoadThreads readers.
  size_t scans;
  /// Close and reopen the engine before the scans and check that the
  /// recovered rows equal the acknowledged ones.
  bool reopen;
};

IngestShape LoadScanShape();
IngestShape IngestDurableShape();

/// A named metric value as printed in the result.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// A timing's sample count and tail, printed beside the metrics.
struct Detail {
  std::string name;
  std::string summary;  // Summary::ToString()
};

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<Detail> details;
  /// Summed standalone time of the layer calls that make up the
  /// workload's foreground operations (numerator of trace.coverage).
  double layer_ns = 0;
};

// codec.cc
CycleResult RunCodecCycle(const Config& cfg, Tracer* tracer, Outcome* out);
/// compressors.* and select.* over `inputs`; adds the compress and
/// decompress time of every call to report->layer_ns.
void ReplayCodecLayers(const std::vector<CodecInput>& inputs, Tracer* tracer,
                       Outcome* out, LayerReport* report);
/// Compression methods every codec measurement runs, in report order.
const std::vector<std::string>& CodecMethods();

// ingest.cc
CycleResult RunIngestCycle(const Config& cfg, const IngestShape& shape,
                           Tracer* tracer, Outcome* out);
/// memtable/wal/device/lsm/shard/column_store/query replays of the
/// shape's inputs. Returns the columns of one full memtable as codec
/// inputs (what a flush hands the compressors).
std::vector<CodecInput> ReplayIngestLayers(const Config& cfg,
                                           const IngestShape& shape,
                                           Tracer* tracer, Outcome* out,
                                           LayerReport* report);

/// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);
/// Removes `dir` and everything under it.
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
