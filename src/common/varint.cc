#include "common/varint.h"

#include <cstring>
#include <string>
#include <string_view>

namespace pol {

// The encoders fill a local buffer and append it once: one capacity
// check per value instead of one per byte.
void PutVarint64(std::string* out, uint64_t value) {
  char buf[10];
  size_t n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  buf[n++] = static_cast<char>(value);
  out->append(buf, n);
}

void PutVarintSigned64(std::string* out, int64_t value) {
  PutVarint64(out, ZigZagEncode(value));
}

Status GetVarint64(std::string_view* input, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  size_t i = 0;
  for (; i < input->size() && shift <= 63; ++i, shift += 7) {
    const uint8_t byte = static_cast<uint8_t>((*input)[i]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      input->remove_prefix(i + 1);
      *value = result;
      return Status::OK();
    }
  }
  return shift > 63 ? Status::Corruption("varint too long")
                    : Status::Corruption("truncated varint");
}

Status GetVarintSigned64(std::string_view* input, int64_t* value) {
  uint64_t raw = 0;
  POL_RETURN_IF_ERROR(GetVarint64(input, &raw));
  *value = ZigZagDecode(raw);
  return Status::OK();
}

void PutDouble(std::string* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  }
  out->append(buf, sizeof(buf));
}

Status GetDouble(std::string_view* input, double* value) {
  if (input->size() < 8) return Status::Corruption("truncated double");
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>((*input)[i])) << (8 * i);
  }
  std::memcpy(value, &bits, sizeof(bits));
  input->remove_prefix(8);
  return Status::OK();
}

void PutLengthPrefixed(std::string* out, std::string_view value) {
  PutVarint64(out, value.size());
  out->append(value.data(), value.size());
}

Status GetLengthPrefixed(std::string_view* input, std::string_view* value) {
  uint64_t len = 0;
  POL_RETURN_IF_ERROR(GetVarint64(input, &len));
  if (input->size() < len) return Status::Corruption("truncated string");
  *value = input->substr(0, len);
  input->remove_prefix(len);
  return Status::OK();
}

}  // namespace pol
