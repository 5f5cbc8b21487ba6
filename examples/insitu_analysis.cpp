// In-situ analysis scenario (§1.1 motivation: Seer-Dash storing HACC
// simulation steps in a KV store for live visualization): each simulation
// time step produces a 3-D field; the field is compressed with an
// HPC-oriented method and staged into the paged store; an analysis query
// reads it back and computes summary statistics.

#include <cmath>
#include <cstdio>
#include <string>

#include "core/compressor.h"
#include "core/streaming.h"
#include "data/dataset.h"
#include "db/dataframe.h"
#include "db/paged_file.h"
#include "util/fs.h"
#include "util/timer.h"

using namespace fcbench;

int main() {
  const int kTimeSteps = 4;
  std::printf("in-situ pipeline: %d simulation steps of a 3-D field, "
              "staged through compressed pages, analyzed in memory\n\n",
              kTimeSteps);

  double total_raw = 0, total_stored = 0;
  for (int step = 0; step < kTimeSteps; ++step) {
    // One simulation time step (turbulence-like 3-D field; a different
    // seed per step plays the role of time evolution).
    auto ds = data::GenerateDataset(*data::FindDataset("turbulence"),
                                    2ull << 20, 100 + step);
    if (!ds.ok()) return 1;

    // Stage: compress with ndzip (the paper's high-throughput HPC choice)
    // into the paged store.
    std::string path = "/tmp/fcbench_insitu_step" + std::to_string(step);
    db::PagedFile::Options opt;
    opt.compressor = "ndzip_cpu";
    opt.page_size = 256 << 10;
    Timer stage_timer;
    Status st = db::PagedFile::Write(path, ds.value().bytes.span(),
                                     ds.value().desc, opt);
    double stage_ms = stage_timer.ElapsedSeconds() * 1e3;
    if (!st.ok()) {
      std::printf("stage failed: %s\n", st.ToString().c_str());
      return 1;
    }
    double stored = static_cast<double>(fs::FileSize(path).value());

    // Analyze: read back, compute field statistics (the "query" half of
    // Figure 4's staging/query split).
    db::PagedFile::ReadTiming timing;
    auto bytes = db::PagedFile::Read(path, &timing);
    if (!bytes.ok()) return 1;
    auto flat_desc = ds.value().desc.As1D();
    auto df =
        db::DataFrame::FromBytes(bytes.value().span(), flat_desc).TakeValue();
    Timer q_timer;
    const auto& col = df.column(0);
    double mn = col[0], mx = col[0], sum = 0;
    for (double v : col) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      sum += v;
    }
    double query_ms = q_timer.ElapsedSeconds() * 1e3;

    std::printf("step %d: raw %.2f MB -> stored %.2f MB (ratio %.2f)  "
                "stage %.1f ms  io+decode %.1f+%.1f ms  analyze %.1f ms  "
                "range [%.1f, %.1f] mean %.2f\n",
                step, ds.value().bytes.size() / 1e6, stored / 1e6,
                ds.value().bytes.size() / stored, stage_ms,
                timing.io_seconds * 1e3, timing.decode_seconds * 1e3,
                query_ms, mn, mx, sum / col.size());
    total_raw += static_cast<double>(ds.value().bytes.size());
    total_stored += stored;
    std::remove(path.c_str());
  }

  std::printf("\ntotal: %.2f MB of simulation output stored in %.2f MB "
              "(%.2fx saved) while remaining queryable per step.\n",
              total_raw / 1e6, total_stored / 1e6, total_raw / total_stored);

  // The same pipeline as a single append-only stream (core/streaming.h):
  // one checksummed frame per time step, shipped to the consumer as soon
  // as it is produced — the inter-node transfer path of §1 where lossless
  // coding is mandatory to avoid error accumulation.
  std::printf("\nstreaming variant: one frame per step, decoded as it "
              "arrives\n");
  auto writer = StreamWriter::Open("ndzip_cpu").TakeValue();
  auto reader = StreamReader::Open("ndzip_cpu").TakeValue();
  Buffer wire;
  for (int step = 0; step < kTimeSteps; ++step) {
    auto ds = data::GenerateDataset(*data::FindDataset("turbulence"),
                                    512 << 10, 100 + step);
    if (!ds.ok()) return 1;
    if (!writer.Append(ds.value().bytes.span(), ds.value().desc.dtype,
                       &wire)
             .ok()) {
      return 1;
    }
    Buffer received;  // consumer side: decode the frame just shipped
    if (!reader.Next(wire.span(), &received).ok()) return 1;
    std::printf("  step %d on the wire: %llu raw -> %llu framed bytes "
                "(running ratio %.2f)\n",
                step,
                static_cast<unsigned long long>(ds.value().bytes.size()),
                static_cast<unsigned long long>(writer.frame_bytes()),
                double(writer.raw_bytes()) / writer.frame_bytes());
  }
  return 0;
}
