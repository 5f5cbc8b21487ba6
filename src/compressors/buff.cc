#include "compressors/buff.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "util/bitio.h"

namespace fcbench::compressors {

namespace {

/// Paper Table 2: bits needed for each decimal-precision target.
constexpr int kFractionBits[11] = {0, 5, 8, 11, 15, 18, 21, 25, 28, 31, 35};

struct BuffHeader {
  uint64_t count = 0;
  double min = 0.0;
  uint8_t int_bits = 0;
  uint8_t frac_bits = 0;
  uint8_t digits = 0;

  size_t value_bytes() const { return (int_bits + frac_bits + 7) / 8; }

  void Put(Buffer* out) const {
    PutVarint64(out, count);
    PutFixed(out, min);
    out->PushBack(int_bits);
    out->PushBack(frac_bits);
    out->PushBack(digits);
  }

  static Result<BuffHeader> Get(ByteSpan in, size_t* off) {
    BuffHeader h;
    if (!GetVarint64(in, off, &h.count) || !GetFixed(in, off, &h.min) ||
        !GetFixed(in, off, &h.int_bits) || !GetFixed(in, off, &h.frac_bits) ||
        !GetFixed(in, off, &h.digits)) {
      return Status::Corruption("buff: bad header");
    }
    if (h.int_bits + h.frac_bits > 64 || h.value_bytes() == 0) {
      return Status::Corruption("buff: invalid bit widths");
    }
    return h;
  }
};

double RoundDecimal(double v, int digits) {
  double scale = std::pow(10.0, digits);
  return std::round(v * scale) / scale;
}

/// Quantizes (v - min) to the fixed-point record representation.
uint64_t Quantize(double v, const BuffHeader& h) {
  double d = v - h.min;
  if (d < 0) d = 0;
  double ipart_d;
  double frac = std::modf(d, &ipart_d);
  uint64_t ipart = static_cast<uint64_t>(ipart_d);
  uint64_t q = static_cast<uint64_t>(
      std::llround(frac * static_cast<double>(uint64_t(1) << h.frac_bits)));
  if (q >> h.frac_bits) {  // fraction rounded up to 1.0: carry
    q = 0;
    ++ipart;
  }
  uint64_t rec = (ipart << h.frac_bits) | q;
  // Clamp to the representable range (guards carry overflow on max).
  int total = h.int_bits + h.frac_bits;
  if (total < 64) {
    uint64_t max_rec = (uint64_t(1) << total) - 1;
    if (rec > max_rec) rec = max_rec;
  }
  return rec;
}

double Dequantize(uint64_t rec, const BuffHeader& h) {
  uint64_t q = rec & ((h.frac_bits < 64)
                          ? ((uint64_t(1) << h.frac_bits) - 1)
                          : ~uint64_t(0));
  uint64_t ipart = rec >> h.frac_bits;
  double v = h.min + static_cast<double>(ipart) +
             static_cast<double>(q) /
                 static_cast<double>(uint64_t(1) << h.frac_bits);
  return RoundDecimal(v, h.digits);
}

int BitsForRange(double range) {
  uint64_t span = static_cast<uint64_t>(std::floor(std::max(range, 0.0))) + 2;
  int bits = 1;
  while ((uint64_t(1) << bits) < span && bits < 50) ++bits;
  return bits;
}

}  // namespace

int BuffCompressor::FractionBits(int digits) {
  digits = std::clamp(digits, 0, 10);
  return kFractionBits[digits];
}

BuffCompressor::BuffCompressor(const CompressorConfig& /*config*/) {
  traits_.name = "buff";
  traits_.year = 2021;
  traits_.domain = "Database";
  traits_.arch = Arch::kCpu;
  traits_.predictor = PredictorClass::kDelta;
  traits_.parallel = false;
  traits_.uses_dimensions = false;
}

Status BuffCompressor::Compress(ByteSpan input, const DataDesc& desc,
                                Buffer* out) {
  const size_t esize = DTypeSize(desc.dtype);
  if (input.size() % esize != 0) {
    return Status::InvalidArgument("buff: input not a whole element count");
  }
  const size_t n = input.size() / esize;

  // Pass 1: min/max.
  double mn = 0.0, mx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double v;
    if (desc.dtype == DType::kFloat32) {
      float f;
      std::memcpy(&f, input.data() + i * 4, 4);
      v = f;
    } else {
      std::memcpy(&v, input.data() + i * 8, 8);
    }
    if (i == 0 || v < mn) mn = v;
    if (i == 0 || v > mx) mx = v;
  }

  BuffHeader h;
  h.count = n;
  h.min = mn;
  h.digits = static_cast<uint8_t>(
      desc.precision_digits > 0 ? std::min(desc.precision_digits, 10) : 10);
  h.frac_bits = static_cast<uint8_t>(FractionBits(h.digits));
  h.int_bits = static_cast<uint8_t>(
      std::min(BitsForRange(mx - mn), 63 - static_cast<int>(h.frac_bits)));
  out->Reserve(out->size() + 24 + h.value_bytes() * n);  // header + planes
  h.Put(out);
  if (n == 0) return Status::OK();

  // Pass 2 follows the original's staging pipeline, which is what gives
  // BUFF the largest working set of the studied suite (paper §6.1.7,
  // Figure 10: ~7x the input): (a) a double-precision staging copy,
  // (b) the quantized fixed-point records, (c) a scratch sub-column
  // matrix, and finally (d) the output columns.
  const size_t vbytes = h.value_bytes();
  Buffer staged(n * sizeof(double));         // (a)
  double* staged_v = reinterpret_cast<double*>(staged.data());
  for (size_t i = 0; i < n; ++i) {
    if (desc.dtype == DType::kFloat32) {
      float f;
      std::memcpy(&f, input.data() + i * 4, 4);
      staged_v[i] = f;
    } else {
      std::memcpy(&staged_v[i], input.data() + i * 8, 8);
    }
  }
  Buffer recs_buf(n * sizeof(uint64_t));     // (b)
  uint64_t* recs = reinterpret_cast<uint64_t*>(recs_buf.data());
  for (size_t i = 0; i < n; ++i) {
    recs[i] = Quantize(staged_v[i], h);
  }
  Buffer scratch(vbytes * n);                // (c)
  uint8_t* planes = scratch.data();
  for (size_t b = 0; b < vbytes; ++b) {
    int shift = static_cast<int>(8 * (vbytes - 1 - b));
    uint8_t* plane = planes + b * n;
    for (size_t i = 0; i < n; ++i) {
      plane[i] = static_cast<uint8_t>(recs[i] >> shift);
    }
  }
  out->Append(scratch.span());               // (d)
  return Status::OK();
}

namespace {

/// A compressed BUFF stream's parsed header and byte planes: the one
/// record path of Decompress, SubColumnScan and FilteredAggregate.
struct Planes {
  BuffHeader h;
  const uint8_t* planes = nullptr;
  size_t n = 0;
  size_t vbytes = 0;

  static Result<Planes> Parse(ByteSpan compressed) {
    Planes p;
    size_t off = 0;
    FCB_ASSIGN_OR_RETURN(p.h, BuffHeader::Get(compressed, &off));
    p.n = p.h.count;
    p.vbytes = p.h.value_bytes();
    // Overflow-safe: a flooded count field makes n * vbytes wrap uint64
    // and sail past a naive `off + n * vbytes > size` check.
    if (p.n > (compressed.size() - off) / p.vbytes) {
      return Status::Corruption("buff: truncated sub-columns");
    }
    p.planes = compressed.data() + off;
    return p;
  }

  /// Record `i` reassembled from its byte planes.
  uint64_t Record(size_t i) const {
    uint64_t rec = 0;
    for (size_t b = 0; b < vbytes; ++b) {
      rec = (rec << 8) | planes[b * n + i];
    }
    return rec;
  }
};

}  // namespace

Status BuffCompressor::Decompress(ByteSpan input, const DataDesc& desc,
                                  Buffer* out) {
  FCB_ASSIGN_OR_RETURN(const Planes p, Planes::Parse(input));
  const size_t base = out->size();
  const size_t esize = DTypeSize(desc.dtype);
  out->Resize(base + p.n * esize);
  uint8_t* dst = out->data() + base;
  for (size_t i = 0; i < p.n; ++i) {
    const double v = Dequantize(p.Record(i), p.h);
    if (desc.dtype == DType::kFloat32) {
      float f = static_cast<float>(v);
      std::memcpy(dst + i * 4, &f, 4);
    } else {
      std::memcpy(dst + i * 8, &v, 8);
    }
  }
  return Status::OK();
}

namespace {

using Predicate = BuffCompressor::Predicate;

/// `value <pred> constant` bound to one compressed BUFF stream: its
/// planes and the constant quantized into the records' fixed-point
/// bytes. The one evaluation path of SubColumnScan and
/// FilteredAggregate.
struct PlaneScan : Planes {
  Predicate pred = Predicate::kEqual;
  /// The constant lies outside the encoded range, so the predicate is
  /// decided for every record at once: all of them hit iff `all_hit`.
  bool decided = false;
  bool all_hit = false;
  uint8_t tbytes[8] = {0};

  /// Sub-column pattern matching with early disqualification: record `i`
  /// is compared byte-plane by byte-plane, most significant first, and
  /// the first plane that differs from the constant decides it. Only
  /// meaningful when !decided.
  bool Hit(size_t i) const {
    for (size_t b = 0; b < vbytes; ++b) {
      const uint8_t vb = planes[b * n + i];
      if (vb == tbytes[b]) continue;  // still undecided at this plane
      switch (pred) {
        case Predicate::kLess:
          return vb < tbytes[b];
        case Predicate::kGreaterEqual:
          return vb > tbytes[b];
        case Predicate::kEqual:
          break;
      }
      return false;
    }
    // All bytes equal.
    return pred == Predicate::kEqual || pred == Predicate::kGreaterEqual;
  }
};

Result<PlaneScan> BindPredicate(ByteSpan compressed, Predicate pred,
                                double constant) {
  FCB_ASSIGN_OR_RETURN(const Planes planes, Planes::Parse(compressed));
  PlaneScan s{planes, pred};

  // Encode the constant into the same fixed-point representation. For
  // values outside the representable range the comparison short-circuits.
  const int total_bits = s.h.int_bits + s.h.frac_bits;
  const double range_max =
      s.h.min + (std::pow(2.0, total_bits) - 1.0) /
                    static_cast<double>(uint64_t(1) << s.h.frac_bits);
  if (constant < s.h.min) {
    s.decided = true;
    s.all_hit = pred == Predicate::kGreaterEqual;
  } else if (constant > range_max) {
    s.decided = true;
    s.all_hit = pred == Predicate::kLess;
  } else {
    const uint64_t target = Quantize(constant, s.h);
    // BuffHeader::Get caps the widths at 64 bits: vbytes <= 8.
    for (size_t b = 0; b < s.vbytes && b < sizeof(s.tbytes); ++b) {
      s.tbytes[b] = static_cast<uint8_t>(target >> (8 * (s.vbytes - 1 - b)));
    }
  }
  return s;
}

}  // namespace

Result<std::vector<bool>> BuffCompressor::SubColumnScan(ByteSpan compressed,
                                                        Predicate pred,
                                                        double constant) {
  FCB_ASSIGN_OR_RETURN(PlaneScan scan,
                       BindPredicate(compressed, pred, constant));
  std::vector<bool> hits(scan.n, scan.all_hit);
  if (scan.decided) return hits;
  for (size_t i = 0; i < scan.n; ++i) hits[i] = scan.Hit(i);
  return hits;
}

Result<BuffCompressor::AggregateResult> BuffCompressor::FilteredAggregate(
    ByteSpan compressed, Predicate pred, double constant, Aggregate agg) {
  FCB_ASSIGN_OR_RETURN(PlaneScan scan,
                       BindPredicate(compressed, pred, constant));
  AggregateResult result;
  result.value = (agg == Aggregate::kMin)
                     ? std::numeric_limits<double>::infinity()
                 : (agg == Aggregate::kMax)
                     ? -std::numeric_limits<double>::infinity()
                     : 0.0;
  if (scan.decided && !scan.all_hit) return result;

  for (size_t i = 0; i < scan.n; ++i) {
    if (!scan.decided && !scan.Hit(i)) continue;
    ++result.count;
    if (agg == Aggregate::kCount) continue;
    // Only qualifying records are dequantized — this is the aggregation
    // pushdown that avoids paying full decompression.
    const double v = Dequantize(scan.Record(i), scan.h);
    switch (agg) {
      case Aggregate::kSum:
        result.value += v;
        break;
      case Aggregate::kMin:
        result.value = std::min(result.value, v);
        break;
      case Aggregate::kMax:
        result.value = std::max(result.value, v);
        break;
      case Aggregate::kCount:
        break;
    }
  }
  return result;
}

}  // namespace fcbench::compressors
