#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/format.h"
#include "util/buffer.h"

namespace perfbench {

/// One array handed to a compressor.
struct CodecInput {
  std::string name;
  fcbench::DataDesc desc;
  fcbench::Buffer bytes;
};

/// The codec-corpus inputs: two generated datasets per Table-3 domain
/// (HPC, TS, OBS, DB), mixing f32/f64, 1-D/2-D/3-D and decimal/full
/// precision, ~1 MiB each. Deterministic in `seed`.
std::vector<CodecInput> MakeCorpus(uint64_t seed);
std::vector<std::string> CorpusNames();

/// One scan of the query workload: `col <= threshold`, with the answer
/// computed from the generated input.
struct ScanSpec {
  size_t col = 0;
  double threshold = 0;
  uint64_t count = 0;      // rows matching
  double sum = 0;          // sum of the matching values
  double abs_sum = 0;      // sum of |value| over matches (error scale)
};

/// Rows of a multi-column sensor dataset cut into batches, each routed to
/// a series key, plus the scans to run once the rows are stored.
struct IngestInput {
  static constexpr size_t kSeries = 1024;

  std::string dataset;
  size_t ncols = 0;
  int precision_digits = 0;
  size_t batch_rows = 0;
  std::vector<std::vector<double>> batches;  // row-major, batch_rows rows
  std::vector<uint64_t> keys;                // series key per batch
  /// Every column crossed with the nine decile thresholds.
  std::vector<ScanSpec> scans;

  uint64_t total_rows() const { return batches.size() * batch_rows; }
  uint64_t user_bytes() const { return total_rows() * ncols * 8; }
};

/// `num_batches` batches of `batch_rows` rows of the generated
/// `wesad-chest` sensor dataset (8 f64 columns, 4 decimal digits).
/// Deterministic in `seed`.
IngestInput MakeIngestInput(uint64_t seed, size_t num_batches,
                            size_t batch_rows);

std::string ColumnName(size_t col);

/// Order-independent digest of a multiset of values: a sum of mixed
/// value bits, so rows recovered in any order hash alike. Reads `n`
/// values `stride` doubles apart (a column of row-major rows).
uint64_t ValueHash(const double* values, size_t n, size_t stride = 1);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
