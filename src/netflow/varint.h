// LEB128 varints and zigzag mappings shared by the on-disk trace format
// (trace_io) and the in-memory columnar record store (columnar_records).
//
// Encoding is append-only into a byte vector. Two decoders exist by design:
// the unchecked pointer-advancing get_varint below for self-produced,
// trusted buffers (the columnar store decodes only bytes it encoded), and
// the bounds-checked CheckedCursor for untrusted bytes (trace files,
// StreamMonitor checkpoints).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace dm::netflow {

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Encodes v at `p` with no capacity checks and returns the advanced
/// pointer. Callers stage a bounded group of varints in a stack buffer
/// (kMaxVarintBytes of headroom each) and splice the result into the byte
/// vector in one append — identical bytes to repeated put_varint calls.
[[nodiscard]] inline std::uint8_t* put_varint_raw(std::uint8_t* p,
                                                  std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Decodes one varint from a trusted buffer, advancing `p`. No bounds
/// checking: callers guarantee `p` points at a well-formed varint (the
/// columnar store only decodes buffers it produced; the ASan/UBSan CI gate
/// covers the invariant).
[[nodiscard]] inline std::uint64_t get_varint(const std::uint8_t*& p) noexcept {
  std::uint64_t v = 0;
  int shift = 0;
  std::uint8_t b;
  do {
    b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    shift += 7;
  } while ((b & 0x80) != 0);
  return v;
}

/// Bounds-checked decoder over untrusted bytes. Every primitive throws
/// dm::FormatError (prefixed with `context`) instead of reading past the
/// span — the decode side of the varint/CRC framing shared by trace files
/// and StreamMonitor checkpoints.
class CheckedCursor {
 public:
  explicit CheckedCursor(std::span<const std::uint8_t> bytes,
                         const char* context = "varint") noexcept
      : bytes_(bytes), context_(context) {}

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= bytes_.size() || shift > 63) {
        throw FormatError(std::string(context_) + ": truncated varint");
      }
      const std::uint8_t b = bytes_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= bytes_.size(); }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* context_;
  std::size_t pos_ = 0;
};

/// Longest LEB128 encoding of a u64: ten 7-bit groups.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// ZigZag: maps small signed deltas to small unsigned varints.
[[nodiscard]] inline std::uint64_t zigzag64(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] inline std::int64_t unzigzag64(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

[[nodiscard]] inline std::uint32_t zigzag32(std::int32_t v) noexcept {
  return (static_cast<std::uint32_t>(v) << 1) ^
         static_cast<std::uint32_t>(v >> 31);
}

[[nodiscard]] inline std::int32_t unzigzag32(std::uint32_t v) noexcept {
  return static_cast<std::int32_t>(v >> 1) ^ -static_cast<std::int32_t>(v & 1);
}

/// Wraparound delta helpers: `a - b` in modular arithmetic zigzagged so
/// both tiny forward and tiny backward steps encode in one or two bytes,
/// while any (a, b) pair — including INT64_MIN/INT64_MAX minutes fed in by
/// ingestion — round-trips exactly (decode adds the delta back mod 2^64).
[[nodiscard]] inline std::uint64_t delta64(std::uint64_t a, std::uint64_t b) noexcept {
  return zigzag64(static_cast<std::int64_t>(a - b));
}

[[nodiscard]] inline std::uint64_t undelta64(std::uint64_t base, std::uint64_t zz) noexcept {
  return base + static_cast<std::uint64_t>(unzigzag64(zz));
}

[[nodiscard]] inline std::uint32_t delta32(std::uint32_t a, std::uint32_t b) noexcept {
  return zigzag32(static_cast<std::int32_t>(a - b));
}

[[nodiscard]] inline std::uint32_t undelta32(std::uint32_t base, std::uint32_t zz) noexcept {
  return base + static_cast<std::uint32_t>(unzigzag32(zz));
}

}  // namespace dm::netflow
