#include "util/bitio.h"

namespace fcbench {

void PutVarint64(Buffer* out, uint64_t v) {
  uint8_t bytes[10];
  out->Append(bytes, static_cast<size_t>(PutVarint64(bytes, v) - bytes));
}

bool GetVarint64(ByteSpan in, size_t* offset, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (*offset < in.size() && shift <= 63) {
    uint8_t b = in[*offset];
    ++*offset;
    result |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace fcbench
