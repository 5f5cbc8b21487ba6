#include "codecs/huffman.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "util/bitio.h"

namespace fcbench::codecs {

namespace {

struct Node {
  uint64_t freq;
  int16_t sym;    // -1 for internal
  int32_t left = -1;
  int32_t right = -1;
};

/// Computes tree depths; returns max depth.
int ComputeDepths(const std::vector<Node>& nodes, int root,
                  uint8_t lengths[256]) {
  // Iterative DFS with explicit (node, depth) stack.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack = {{root, 0}};
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& nd = nodes[idx];
    if (nd.sym >= 0) {
      lengths[nd.sym] = static_cast<uint8_t>(std::max(depth, 1));
      max_depth = std::max(max_depth, std::max(depth, 1));
    } else {
      stack.push_back({nd.left, depth + 1});
      stack.push_back({nd.right, depth + 1});
    }
  }
  return max_depth;
}

}  // namespace

void HuffmanCodec::BuildCodeLengths(const uint64_t hist[256],
                                    uint8_t lengths[256]) {
  std::memset(lengths, 0, 256);
  std::vector<Node> nodes;
  using Item = std::pair<uint64_t, int>;  // (freq, node index)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  for (int s = 0; s < 256; ++s) {
    if (hist[s] == 0) continue;
    nodes.push_back({hist[s], static_cast<int16_t>(s)});
    pq.push({hist[s], static_cast<int>(nodes.size()) - 1});
  }
  if (nodes.empty()) return;
  if (nodes.size() == 1) {
    lengths[nodes[0].sym] = 1;
    return;
  }
  while (pq.size() > 1) {
    auto [fa, a] = pq.top();
    pq.pop();
    auto [fb, b] = pq.top();
    pq.pop();
    Node parent{fa + fb, -1, a, b};
    nodes.push_back(parent);
    pq.push({fa + fb, static_cast<int>(nodes.size()) - 1});
  }
  int root = pq.top().second;
  int max_depth = ComputeDepths(nodes, root, lengths);

  // Length-limit by repeatedly flattening: while over the limit, find the
  // deepest leaf and pair it with a shallower one (heuristic; preserves the
  // Kraft inequality by the standard "overflow absorption" adjustment).
  if (max_depth > kMaxCodeLen) {
    // Clamp and then repair Kraft sum.
    for (int s = 0; s < 256; ++s) {
      if (lengths[s] > kMaxCodeLen) lengths[s] = kMaxCodeLen;
    }
    // Kraft sum scaled by 2^kMaxCodeLen must be <= 2^kMaxCodeLen.
    auto kraft = [&]() {
      uint64_t sum = 0;
      for (int s = 0; s < 256; ++s) {
        if (lengths[s]) sum += uint64_t(1) << (kMaxCodeLen - lengths[s]);
      }
      return sum;
    };
    uint64_t limit = uint64_t(1) << kMaxCodeLen;
    while (kraft() > limit) {
      // Lengthen the shortest non-max code by one (cheapest repair).
      int best = -1;
      for (int s = 0; s < 256; ++s) {
        if (lengths[s] > 0 && lengths[s] < kMaxCodeLen &&
            (best < 0 || lengths[s] < lengths[best])) {
          best = s;
        }
      }
      if (best < 0) break;  // cannot repair (would need >256 max-len codes)
      ++lengths[best];
    }
  }
}

void HuffmanCodec::AssignCanonicalCodes(const uint8_t lengths[256],
                                        uint16_t codes[256]) {
  // Count codes of each length, then assign sequentially (RFC1951 style).
  int bl_count[kMaxCodeLen + 1] = {0};
  for (int s = 0; s < 256; ++s) ++bl_count[lengths[s]];
  bl_count[0] = 0;
  uint16_t next_code[kMaxCodeLen + 2] = {0};
  uint16_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = static_cast<uint16_t>((code + bl_count[len - 1]) << 1);
    next_code[len] = code;
  }
  for (int s = 0; s < 256; ++s) {
    if (lengths[s] > 0) codes[s] = next_code[lengths[s]]++;
  }
}

void HuffmanCodec::Compress(ByteSpan input, Buffer* out) {
  uint64_t hist[256] = {0};
  for (uint8_t b : input) ++hist[b];
  uint8_t lengths[256];
  uint16_t codes[256] = {0};
  BuildCodeLengths(hist, lengths);
  AssignCanonicalCodes(lengths, codes);

  uint64_t payload_bits = 0;
  for (int s = 0; s < 256; ++s) payload_bits += hist[s] * lengths[s];

  // Raw fallback: when the 128-byte length table plus coded payload cannot
  // beat a plain copy (small or high-entropy inputs), store verbatim. This
  // keeps per-block overhead small for blocked callers (bitshuffle's 4 KiB
  // default blocks; Table 10's 4K sweep).
  size_t huff_cost = 128 + (payload_bits + 7) / 8;
  if (huff_cost >= input.size()) {
    out->PushBack(kRawMode);
    PutVarint64(out, input.size());
    out->Append(input);
    return;
  }

  out->PushBack(kHuffmanMode);
  PutVarint64(out, input.size());
  // Pack 256 x 4-bit lengths.
  for (int s = 0; s < 256; s += 2) {
    out->PushBack(static_cast<uint8_t>((lengths[s] << 4) | lengths[s + 1]));
  }
  PutVarint64(out, payload_bits);

  // The histogram gives the exact payload size up front, so the hot encode
  // loop never grows the buffer.
  Buffer payload;
  payload.Reserve((payload_bits + 7) / 8);
  BitWriter bw(&payload);
  for (uint8_t b : input) bw.WriteBits(codes[b], lengths[b]);
  bw.Flush();
  out->Append(payload.span());
}

Status HuffmanCodec::Decompress(ByteSpan input, size_t max_size,
                                size_t* consumed, Buffer* out) {
  size_t off = 0;
  if (input.empty()) return Status::Corruption("huffman: empty input");
  uint8_t mode = input[off++];
  uint64_t count = 0;
  if (!GetVarint64(input, &off, &count)) {
    return Status::Corruption("huffman: bad symbol count");
  }
  if (count > max_size) {
    return Status::Corruption("huffman: symbol count exceeds the limit");
  }
  if (mode == kRawMode) {
    if (count > input.size() - off) {
      return Status::Corruption("huffman: truncated raw block");
    }
    out->Append(input.data() + off, count);
    *consumed = off + count;
    return Status::OK();
  }
  if (mode != kHuffmanMode) {
    return Status::Corruption("huffman: unknown mode byte");
  }
  if (off + 128 > input.size()) {
    return Status::Corruption("huffman: truncated length table");
  }
  uint8_t lengths[256];
  for (int s = 0; s < 256; s += 2) {
    uint8_t packed = input[off++];
    lengths[s] = packed >> 4;
    lengths[s + 1] = packed & 0x0f;
  }
  uint64_t payload_bits = 0;
  if (!GetVarint64(input, &off, &payload_bits)) {
    return Status::Corruption("huffman: bad payload size");
  }
  const uint64_t payload_bytes = payload_bits / 8 + (payload_bits % 8 != 0);
  if (payload_bytes > input.size() - off) {
    return Status::Corruption("huffman: truncated payload");
  }

  // Build canonical decode tables: first code and symbol index per length.
  uint16_t codes[256] = {0};
  AssignCanonicalCodes(lengths, codes);
  // symbols sorted by (length, symbol) — canonical order.
  std::vector<int> order;
  order.reserve(256);
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    for (int s = 0; s < 256; ++s) {
      if (lengths[s] == len) order.push_back(s);
    }
  }
  int first_code[kMaxCodeLen + 1];
  int first_index[kMaxCodeLen + 1];
  int count_len[kMaxCodeLen + 1] = {0};
  for (int s = 0; s < 256; ++s) {
    if (lengths[s]) ++count_len[lengths[s]];
  }
  {
    int idx = 0;
    int code = 0;
    for (int len = 1; len <= kMaxCodeLen; ++len) {
      code <<= 1;
      first_code[len] = code;
      first_index[len] = idx;
      code += count_len[len];
      idx += count_len[len];
    }
  }

  BitReader br(input.subspan(off, payload_bytes));
  size_t base = out->size();
  out->Resize(base + count);
  uint8_t* dst = out->data() + base;
  for (uint64_t i = 0; i < count; ++i) {
    int code = 0;
    int len = 0;
    int sym = -1;
    while (len < kMaxCodeLen) {
      code = (code << 1) | static_cast<int>(br.ReadBit());
      ++len;
      int offset_in_len = code - first_code[len];
      if (offset_in_len >= 0 && offset_in_len < count_len[len]) {
        sym = order[first_index[len] + offset_in_len];
        break;
      }
    }
    if (sym < 0 || br.overrun()) {
      return Status::Corruption("huffman: invalid code");
    }
    dst[i] = static_cast<uint8_t>(sym);
  }
  *consumed = off + payload_bytes;
  return Status::OK();
}

}  // namespace fcbench::codecs
