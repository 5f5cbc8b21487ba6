#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "data/dataset.h"

namespace perfbench {

namespace {

constexpr uint64_t kCorpusBytes = 1 << 20;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

fcbench::data::Dataset Generate(const std::string& name, uint64_t bytes,
                                uint64_t seed) {
  const fcbench::data::DatasetInfo* info =
      fcbench::data::FindDataset(name);
  auto ds = info == nullptr
                ? fcbench::Result<fcbench::data::Dataset>(
                      fcbench::Status::InvalidArgument("unknown dataset " + name))
                : fcbench::data::GenerateDataset(*info, bytes, seed);
  if (!ds.ok()) {
    // Inputs are fixed by the benchmark; failing to make one is a bug.
    std::fprintf(stderr, "perfbench: cannot generate %s: %s\n", name.c_str(),
                 ds.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(ds).value();
}

}  // namespace

std::vector<std::string> CorpusNames() {
  // HPC, TS, OBS and DB, two each: f64 1-D noisy and f32 3-D smooth
  // fields; decimal f32 1-D and f64 2-D series; f32 2-D and 3-D sky
  // images; decimal f64 1-D and f32 2-D TPC columns.
  return {"msg-bt",      "wave",         "citytemp",   "wesad-chest",
          "hst-wfc3-ir", "jws-mirimage", "tpcH-order", "tpcDS-web"};
}

std::vector<CodecInput> MakeCorpus(uint64_t seed) {
  std::vector<CodecInput> corpus;
  for (const std::string& name : CorpusNames()) {
    fcbench::data::Dataset ds = Generate(name, kCorpusBytes, seed);
    corpus.push_back({name, ds.desc, std::move(ds.bytes)});
  }
  return corpus;
}

IngestInput MakeIngestInput(uint64_t seed, size_t num_batches,
                            size_t batch_rows) {
  IngestInput in;
  in.dataset = "wesad-chest";
  in.batch_rows = batch_rows;
  const uint64_t rows = static_cast<uint64_t>(num_batches) * batch_rows;
  fcbench::data::Dataset ds = Generate(in.dataset, rows * 8 * 8, seed);
  in.ncols = ds.desc.extent.size() == 2 ? ds.desc.extent[1] : 1;
  in.precision_digits = ds.desc.precision_digits;
  if (ds.desc.dtype != fcbench::DType::kFloat64 ||
      ds.desc.extent[0] < rows) {
    std::fprintf(stderr, "perfbench: %s has an unexpected shape %s\n",
                 in.dataset.c_str(), ds.desc.ToString().c_str());
    std::exit(3);
  }
  const double* values = reinterpret_cast<const double*>(ds.bytes.data());
  const size_t batch_values = batch_rows * in.ncols;
  for (size_t b = 0; b < num_batches; ++b) {
    in.batches.emplace_back(values + b * batch_values,
                            values + (b + 1) * batch_values);
    in.keys.push_back(Mix64(seed ^ Mix64(b)) % IngestInput::kSeries);
  }

  // Decile thresholds per column and the exact answer of each scan.
  std::vector<double> col(rows);
  for (size_t c = 0; c < in.ncols; ++c) {
    for (uint64_t r = 0; r < rows; ++r) col[r] = values[r * in.ncols + c];
    ScanSpec deciles[9];
    auto from = col.begin();
    for (int d = 0; d < 9; ++d) {
      // Nearest rank of the decile; each selection only searches the
      // part above the previous one.
      const auto nth = col.begin() + ((rows * (d + 1) + 9) / 10 - 1);
      std::nth_element(from, nth, col.end());
      from = nth + 1;
      deciles[d].col = c;
      deciles[d].threshold = *nth;
    }
    long double sum[9] = {}, abs_sum[9] = {};
    for (uint64_t r = 0; r < rows; ++r) {
      const double v = values[r * in.ncols + c];
      for (int d = 0; d < 9; ++d) {
        if (v <= deciles[d].threshold) {
          ++deciles[d].count;
          sum[d] += v;
          abs_sum[d] += std::fabs(v);
        }
      }
    }
    for (int d = 0; d < 9; ++d) {
      deciles[d].sum = static_cast<double>(sum[d]);
      deciles[d].abs_sum = static_cast<double>(abs_sum[d]);
      in.scans.push_back(deciles[d]);
    }
  }
  return in;
}

std::string ColumnName(size_t col) {
  std::string name = "c";
  name += std::to_string(col);
  return name;
}

uint64_t ValueHash(const double* values, size_t n, size_t stride) {
  uint64_t h = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &values[i * stride], sizeof(bits));
    h += Mix64(bits);
  }
  return h;
}

}  // namespace perfbench
