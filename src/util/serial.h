// Little-endian binary serialization primitives shared by every
// component's Snapshot()/Restore() implementation (the persist
// subsystem, see src/persist/snapshot.h for the framing around these
// payloads). All integers are fixed-width little-endian regardless of
// host byte order; doubles are serialized as their raw IEEE-754 bit
// pattern so restored floating-point state is bit-identical -- the
// foundation of the recovery-equivalence contract (a restored run must
// reproduce the uninterrupted run's virtual clock exactly).
//
// Readers return false on a short or failed stream and never trust a
// length field with an unbounded allocation: strings and vectors grow
// in bounded steps, so a corrupted length fails on stream exhaustion
// instead of attempting a multi-gigabyte resize.

#ifndef PIER_UTIL_SERIAL_H_
#define PIER_UTIL_SERIAL_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pier {
namespace serial {

inline void WriteU8(std::ostream& out, uint8_t v) {
  out.put(static_cast<char>(v));
}

inline void WriteU16(std::ostream& out, uint16_t v) {
  char b[2];
  for (int i = 0; i < 2; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 2);
}

inline void WriteU32(std::ostream& out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

inline void WriteU64(std::ostream& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 8);
}

inline void WriteF64(std::ostream& out, double v) {
  WriteU64(out, std::bit_cast<uint64_t>(v));
}

inline void WriteBool(std::ostream& out, bool v) {
  WriteU8(out, v ? 1 : 0);
}

inline void WriteString(std::ostream& out, std::string_view s) {
  WriteU64(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline bool ReadU8(std::istream& in, uint8_t* v) {
  char c;
  if (!in.get(c)) return false;
  *v = static_cast<uint8_t>(c);
  return true;
}

inline bool ReadU16(std::istream& in, uint16_t* v) {
  char b[2];
  if (!in.read(b, 2)) return false;
  *v = 0;
  for (int i = 0; i < 2; ++i) {
    *v |= static_cast<uint16_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return true;
}

inline bool ReadU32(std::istream& in, uint32_t* v) {
  char b[4];
  if (!in.read(b, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return true;
}

inline bool ReadU64(std::istream& in, uint64_t* v) {
  char b[8];
  if (!in.read(b, 8)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(b[i])) << (8 * i);
  }
  return true;
}

inline bool ReadF64(std::istream& in, double* v) {
  uint64_t bits = 0;
  if (!ReadU64(in, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

inline bool ReadBool(std::istream& in, bool* v) {
  uint8_t b = 0;
  if (!ReadU8(in, &b) || b > 1) return false;
  *v = (b != 0);
  return true;
}

inline bool ReadString(std::istream& in, std::string* out) {
  uint64_t n = 0;
  if (!ReadU64(in, &n)) return false;
  out->clear();
  constexpr uint64_t kStep = uint64_t{1} << 20;
  while (n > 0) {
    const size_t take = static_cast<size_t>(n < kStep ? n : kStep);
    const size_t old = out->size();
    out->resize(old + take);
    if (!in.read(out->data() + old, static_cast<std::streamsize>(take))) {
      out->clear();
      return false;
    }
    n -= take;
  }
  return true;
}

// Vectors: u64 count followed by the elements, each written/read by
// `fn` (fn(out, elem) / fn(in, &elem) -> bool).
template <typename T, typename Alloc, typename WriteFn>
void WriteVec(std::ostream& out, const std::vector<T, Alloc>& v, WriteFn fn) {
  WriteU64(out, v.size());
  for (const T& x : v) fn(out, x);
}

template <typename T, typename Alloc, typename ReadFn>
bool ReadVec(std::istream& in, std::vector<T, Alloc>* v, ReadFn fn) {
  uint64_t n = 0;
  if (!ReadU64(in, &n)) return false;
  v->clear();
  constexpr uint64_t kReserveCap = uint64_t{1} << 20;
  v->reserve(static_cast<size_t>(n < kReserveCap ? n : kReserveCap));
  for (uint64_t i = 0; i < n; ++i) {
    T x{};
    if (!fn(in, &x)) {
      v->clear();
      return false;
    }
    v->push_back(std::move(x));
  }
  return true;
}

}  // namespace serial
}  // namespace pier

#endif  // PIER_UTIL_SERIAL_H_
