#include "codecs/fse.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "util/bitio.h"

namespace fcbench::codecs {

namespace {

// floor(log2(v)) for v >= 1.
inline int FloorLog2(uint32_t v) { return 31 - std::countl_zero(v); }

/// Spreads the symbols over a table of `table_size` slots (norm sums to
/// it) with zstd's stride; any odd step is coprime with the power-of-two
/// table size, visiting each slot once. The encoder and the decoder both
/// derive their tables from this layout.
void SpreadSymbols(const uint16_t norm[256], uint32_t table_size,
                   uint8_t* spread) {
  const uint32_t step = ((table_size >> 1) + (table_size >> 3) + 3) | 1;
  uint32_t pos = 0;
  for (int s = 0; s < 256; ++s) {
    for (uint16_t k = 0; k < norm[s]; ++k) {
      spread[pos] = static_cast<uint8_t>(s);
      pos = (pos + step) & (table_size - 1);
    }
  }
}

struct SymbolStats {
  uint64_t hist[256] = {0};
  int distinct = 0;
  int last_symbol = 0;
};

SymbolStats CountSymbols(ByteSpan input) {
  SymbolStats s;
  // Four interleaved counter sets: a run of one byte value would
  // otherwise serialize on one counter's store-to-load forwarding.
  uint64_t part[4][256] = {};
  const uint8_t* p = input.data();
  const size_t n = input.size();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++part[0][p[i]];
    ++part[1][p[i + 1]];
    ++part[2][p[i + 2]];
    ++part[3][p[i + 3]];
  }
  for (; i < n; ++i) ++part[0][p[i]];
  for (int b = 0; b < 256; ++b) {
    s.hist[b] = part[0][b] + part[1][b] + part[2][b] + part[3][b];
    if (s.hist[b] > 0) {
      ++s.distinct;
      s.last_symbol = b;
    }
  }
  return s;
}

}  // namespace

int FseCodec::ChooseTableLog(size_t n, int distinct) {
  // Enough room for every present symbol...
  int min_log = 1;
  while ((1 << min_log) < distinct) ++min_log;
  // ...but never more states than input symbols (a state per symbol is
  // already lossless-optimal) and never above the default budget.
  int log = kDefaultTableLog;
  while (log > min_log && (size_t(1) << log) > n) --log;
  return std::clamp(log, min_log, kMaxTableLog);
}

void FseCodec::NormalizeHistogram(const uint64_t hist[256], int table_log,
                                  uint16_t norm[256]) {
  const uint32_t table_size = 1u << table_log;
  uint64_t total = 0;
  for (int i = 0; i < 256; ++i) total += hist[i];
  std::memset(norm, 0, 256 * sizeof(uint16_t));
  if (total == 0) return;

  // First pass: proportional share, with every present symbol >= 1.
  uint32_t assigned = 0;
  for (int i = 0; i < 256; ++i) {
    if (hist[i] == 0) continue;
    uint64_t share = (hist[i] * table_size + total / 2) / total;
    if (share == 0) share = 1;
    if (share > table_size) share = table_size;
    norm[i] = static_cast<uint16_t>(share);
    assigned += norm[i];
  }

  // Second pass: repair rounding drift by charging the most frequent
  // symbols, which distorts their per-symbol cost the least. This is the
  // closed form of repairing one count at a time: growing always picks
  // the first symbol with the largest true count (counts do not change),
  // so it takes the whole deficit; shrinking picks the largest norm that
  // stays >= 1, first symbol on ties, i.e. the top of a heap ordered by
  // (norm, -symbol).
  if (assigned < table_size) {
    int pick = 0;
    for (int i = 1; i < 256; ++i) {
      if (hist[i] > hist[pick]) pick = i;
    }
    norm[pick] = static_cast<uint16_t>(norm[pick] + (table_size - assigned));
  } else if (assigned > table_size) {
    std::pair<uint16_t, int> heap[256];
    size_t size = 0;
    for (int i = 0; i < 256; ++i) {
      if (norm[i] > 1) heap[size++] = {norm[i], -i};
    }
    std::make_heap(heap, heap + size);
    // With every norm at 1 and still oversubscribed the caller's log was
    // too small for `distinct`; unreachable via ChooseTableLog.
    for (uint32_t excess = assigned - table_size; excess > 0 && size > 0;
         --excess) {
      std::pop_heap(heap, heap + size);
      auto& [norm_top, neg_symbol] = heap[size - 1];
      norm[-neg_symbol] = --norm_top;
      if (norm_top > 1) {
        std::push_heap(heap, heap + size);
      } else {
        --size;
      }
    }
  }
}

Status FseCodec::BuildDecodeTable(const uint16_t norm[256], int table_log,
                                  std::vector<DecodeEntry>* table,
                                  std::vector<uint32_t>* encode_index) {
  if (table_log < 1 || table_log > kMaxTableLog) {
    return Status::Corruption("fse: table_log out of range");
  }
  const uint32_t table_size = 1u << table_log;
  uint32_t total = 0;
  for (int i = 0; i < 256; ++i) total += norm[i];
  if (total != table_size) {
    return Status::Corruption("fse: frequencies do not sum to table size");
  }

  std::vector<uint8_t> spread(table_size);
  SpreadSymbols(norm, table_size, spread.data());

  // Cumulative start of each symbol's encode slots.
  uint32_t cum[257];
  cum[0] = 0;
  for (int s = 0; s < 256; ++s) cum[s + 1] = cum[s] + norm[s];

  table->assign(table_size, DecodeEntry{});
  if (encode_index != nullptr) encode_index->assign(table_size, 0);

  // Walking table slots in order assigns each symbol s the sub-states
  // x = f, f+1, ..., 2f-1 (Duda's construction): decoding from slot i
  // yields symbol s and reconstructs the prior encoder state as
  // (x << nb) + bits with nb = table_log - floor(log2(x)).
  std::vector<uint32_t> next(256);
  for (int s = 0; s < 256; ++s) next[s] = norm[s];
  for (uint32_t i = 0; i < table_size; ++i) {
    uint8_t s = spread[i];
    uint32_t x = next[s]++;
    int nb = table_log - FloorLog2(x);
    (*table)[i] = DecodeEntry{
        .symbol = s,
        .num_bits = static_cast<uint8_t>(nb),
        .new_state_base = (x << nb) - table_size,
    };
    if (encode_index != nullptr) {
      (*encode_index)[cum[s] + (x - norm[s])] = i;
    }
  }
  return Status::OK();
}

namespace {

/// Encoder state of one call, kept per thread. `next_state` is the
/// encoder's half of the table BuildDecodeTable builds: for symbol s with
/// normalized frequency f, slot cum[s] + (x - f) holds 2^table_log plus
/// the table index whose entry decodes to (s, x). `states` keeps the
/// state each input position is encoded from. Sizes: 3 * 2^table_log
/// bytes of tables and 2 bytes per input byte of the largest input the
/// thread has encoded.
struct EncodeScratch {
  std::vector<uint8_t> spread;
  std::vector<uint16_t> next_state;
  std::vector<uint16_t> states;

  static EncodeScratch& ForCall(size_t n, uint32_t table_size) {
    thread_local EncodeScratch scratch;
    if (scratch.spread.size() < table_size) {
      scratch.spread.resize(table_size);
      scratch.next_state.resize(table_size);
    }
    if (scratch.states.size() < n) scratch.states.resize(n);
    return scratch;
  }
};

}  // namespace

void FseCodec::Compress(ByteSpan input, Buffer* out) {
  const size_t n = input.size();
  SymbolStats stats = CountSymbols(input);

  auto emit_raw = [&] {
    out->PushBack(kRawMode);
    PutVarint64(out, n);
    out->Append(input);
  };

  if (n == 0) {
    emit_raw();
    return;
  }
  if (stats.distinct == 1) {
    out->PushBack(kRleMode);
    PutVarint64(out, n);
    out->PushBack(static_cast<uint8_t>(stats.last_symbol));
    return;
  }

  const int table_log = ChooseTableLog(n, stats.distinct);
  const uint32_t table_size = 1u << table_log;
  uint16_t norm[256];
  NormalizeHistogram(stats.hist, table_log, norm);

  // Per symbol: it costs max_bits or max_bits - 1 transition bits, the
  // latter for states below `threshold`; `delta` maps x = state >> bits
  // to its encode slot cum[s] + x - f.
  struct SymbolTransform {
    uint32_t threshold;
    int32_t delta;
    uint8_t max_bits;
  };
  SymbolTransform tt[256];
  uint32_t cum[256];
  size_t header_bytes = 1 + VarintSize(n) + 1 + VarintSize(stats.distinct);
  uint64_t min_payload_bits = static_cast<uint64_t>(table_log);
  for (uint32_t s = 0, total = 0; s < 256; total += norm[s], ++s) {
    cum[s] = total;
    if (norm[s] == 0) continue;
    const int max_bits = table_log - FloorLog2(norm[s]);
    tt[s] = SymbolTransform{
        .threshold = static_cast<uint32_t>(norm[s]) << max_bits,
        .delta = static_cast<int32_t>(total) - norm[s],
        .max_bits = static_cast<uint8_t>(max_bits),
    };
    header_bytes += 1 + VarintSize(norm[s]);
    min_payload_bits += stats.hist[s] * static_cast<uint64_t>(max_bits - 1);
  }
  // Raw storage wins when the header, the payload-size varint and the
  // payload reach n + 6 bytes. That total only grows with the payload,
  // so when even the cheapest possible payload loses, skip the encode.
  auto raw_wins = [&](uint64_t payload_bits) {
    const uint64_t payload_bytes = (payload_bits + 7) / 8;
    return header_bytes + VarintSize(payload_bytes) + payload_bytes >= n + 6;
  };
  if (raw_wins(min_payload_bits)) {
    emit_raw();
    return;
  }

  // Spread the symbols as BuildDecodeTable does, then walk the slots in
  // order: the k-th slot of symbol s decodes to x = f + k, so it is the
  // k-th encode slot of s.
  EncodeScratch& scratch = EncodeScratch::ForCall(n, table_size);
  uint8_t* const spread = scratch.spread.data();
  SpreadSymbols(norm, table_size, spread);
  uint16_t* const next_state = scratch.next_state.data();
  for (uint32_t i = 0; i < table_size; ++i) {
    next_state[cum[spread[i]]++] = static_cast<uint16_t>(table_size + i);
  }

  // Pass 1, backwards so the decoder emits forwards: record the state
  // each symbol is encoded from and count the payload bits.
  const uint8_t* const src = input.data();
  uint16_t* const states = scratch.states.data();
  uint32_t state = table_size;  // Any state in [size, 2*size) works.
  uint64_t payload_bits = static_cast<uint64_t>(table_log);
  for (size_t i = n; i-- > 0;) {
    const SymbolTransform& t = tt[src[i]];
    const int nb = t.max_bits - (state < t.threshold ? 1 : 0);
    states[i] = static_cast<uint16_t>(state);
    payload_bits += static_cast<uint64_t>(nb);
    state = next_state[static_cast<int32_t>(state >> nb) + t.delta];
  }
  if (raw_wins(payload_bits)) {
    emit_raw();
    return;
  }
  const size_t payload_bytes = static_cast<size_t>((payload_bits + 7) / 8);
  header_bytes += VarintSize(payload_bytes);

  // 8 bytes of slack past the payload let pass 2 store whole words.
  const size_t base = out->size();
  uint8_t* op = out->ExtendUninit(header_bytes + payload_bytes + 8);
  *op++ = kFseMode;
  op = PutVarint64(op, n);
  *op++ = static_cast<uint8_t>(table_log);
  op = PutVarint64(op, static_cast<uint64_t>(stats.distinct));
  for (int s = 0; s < 256; ++s) {
    if (norm[s] == 0) continue;
    *op++ = static_cast<uint8_t>(s);
    op = PutVarint64(op, norm[s]);
  }
  op = PutVarint64(op, payload_bytes);

  // Pass 2, forwards: the final state, then each symbol's transition bits,
  // MSB-first. The low `nacc` bits of `acc` are pending (at most 7 + 15);
  // each step stores them left-aligned as one big-endian word and keeps
  // the bits of the last partial byte.
  uint64_t acc = state - table_size;
  int nacc = table_log;
  for (size_t i = 0; i < n; ++i) {
    const SymbolTransform& t = tt[src[i]];
    const uint32_t st = states[i];
    const int nb = t.max_bits - (st < t.threshold ? 1 : 0);
    acc = (acc << nb) | (st & ((1u << nb) - 1));
    nacc += nb;
    StoreBigEndian64(op, (acc << (63 - nacc)) << 1);
    op += nacc >> 3;
    nacc &= 7;
  }
  if (nacc > 0) *op++ = static_cast<uint8_t>(acc << (8 - nacc));
  out->Resize(base + header_bytes + payload_bytes);
}

Status FseCodec::Decompress(ByteSpan input, size_t max_size,
                            size_t* consumed, Buffer* out) {
  size_t off = 0;
  if (input.empty()) return Status::Corruption("fse: empty stream");
  uint8_t mode = input[off++];
  uint64_t n = 0;
  if (!GetVarint64(input, &off, &n)) {
    return Status::Corruption("fse: truncated length");
  }
  // Every mode allocates n bytes below; RLE and FSE symbols can cost no
  // input bits at all, so only the caller's limit bounds them.
  if (n > max_size) {
    return Status::Corruption("fse: declared length exceeds the limit");
  }

  if (mode == kRawMode) {
    if (n > input.size() - off) {
      return Status::Corruption("fse: truncated raw payload");
    }
    out->Append(input.subspan(off, n));
    off += n;
    *consumed = off;
    return Status::OK();
  }
  if (mode == kRleMode) {
    if (off >= input.size()) {
      return Status::Corruption("fse: truncated rle payload");
    }
    uint8_t sym = input[off++];
    size_t base = out->size();
    out->Resize(base + n);
    if (n > 0) std::memset(out->data() + base, sym, n);
    *consumed = off;
    return Status::OK();
  }
  if (mode != kFseMode) {
    return Status::Corruption("fse: unknown stream mode");
  }

  if (off >= input.size()) return Status::Corruption("fse: missing table_log");
  int table_log = input[off++];
  if (table_log < 1 || table_log > kMaxTableLog) {
    return Status::Corruption("fse: table_log out of range");
  }
  uint64_t distinct = 0;
  if (!GetVarint64(input, &off, &distinct) || distinct == 0 ||
      distinct > 256) {
    return Status::Corruption("fse: bad symbol count");
  }
  uint16_t norm[256] = {0};
  for (uint64_t i = 0; i < distinct; ++i) {
    if (off >= input.size()) {
      return Status::Corruption("fse: truncated frequency table");
    }
    uint8_t sym = input[off++];
    uint64_t freq = 0;
    if (!GetVarint64(input, &off, &freq) || freq == 0 ||
        freq > (uint64_t(1) << table_log)) {
      return Status::Corruption("fse: bad symbol frequency");
    }
    if (norm[sym] != 0) return Status::Corruption("fse: duplicate symbol");
    norm[sym] = static_cast<uint16_t>(freq);
  }

  uint64_t payload_bytes = 0;
  if (!GetVarint64(input, &off, &payload_bytes) ||
      payload_bytes > input.size() - off) {
    return Status::Corruption("fse: truncated payload");
  }

  std::vector<DecodeEntry> table;
  FCB_RETURN_IF_ERROR(BuildDecodeTable(norm, table_log, &table, nullptr));

  BitReader reader(input.subspan(off, payload_bytes));
  uint32_t state = static_cast<uint32_t>(reader.ReadBits(table_log));
  const uint32_t table_size = 1u << table_log;

  size_t base = out->size();
  out->Resize(base + n);
  uint8_t* dst = out->data() + base;
  for (uint64_t i = 0; i < n; ++i) {
    const DecodeEntry& e = table[state];
    dst[i] = e.symbol;
    state = e.new_state_base +
            static_cast<uint32_t>(reader.ReadBits(e.num_bits));
    if (state >= table_size) {
      return Status::Corruption("fse: decoder state escaped table");
    }
  }
  if (reader.overrun()) {
    return Status::Corruption("fse: payload bit stream exhausted");
  }
  *consumed = off + payload_bytes;
  return Status::OK();
}

}  // namespace fcbench::codecs
