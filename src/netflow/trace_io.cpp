#include "netflow/trace_io.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "netflow/varint.h"
#include "util/error.h"

namespace dm::netflow {
namespace {

constexpr std::size_t kBlockRecords = 4096;
constexpr std::uint64_t kHeaderBytes = 10;  // magic u32 + version u16 + sampling u32
// A record packs 9 varint fields; the payload leads with one base-minute
// varint. These bounds make implausible block headers cheap to reject when
// resynchronizing over damage.
constexpr std::uint64_t kMinRecordPayloadBytes = 9;
constexpr std::uint64_t kMaxRecordPayloadBytes = 9 * kMaxVarintBytes;

std::string hex32(std::uint32_t v) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Varint/zigzag encoding and the bounds-checked CheckedCursor come from
// netflow/varint.h — file input is untrusted, every read is checked.

/// Decodes one CRC-verified block payload, appending `record_count` records
/// to `out`. Throws dm::FormatError on any inconsistency between the
/// payload and its declared record count.
void decode_payload(std::span<const std::uint8_t> payload,
                    std::uint64_t record_count, std::vector<FlowRecord>& out) {
  CheckedCursor cursor{payload, "trace"};
  const util::Minute base = unzigzag64(cursor.varint());
  out.reserve(out.size() + record_count);
  for (std::uint64_t i = 0; i < record_count; ++i) {
    FlowRecord r;
    r.minute = base + unzigzag64(cursor.varint());
    r.src_ip = IPv4(static_cast<std::uint32_t>(cursor.varint()));
    r.dst_ip = IPv4(static_cast<std::uint32_t>(cursor.varint()));
    r.src_port = static_cast<std::uint16_t>(cursor.varint());
    r.dst_port = static_cast<std::uint16_t>(cursor.varint());
    r.protocol = static_cast<Protocol>(cursor.varint());
    r.tcp_flags = static_cast<TcpFlags>(cursor.varint());
    r.packets = static_cast<std::uint32_t>(cursor.varint());
    r.bytes = cursor.varint();
    out.push_back(r);
  }
  if (!cursor.exhausted()) {
    throw FormatError("trace: trailing bytes after last record in block");
  }
}

/// One attempt to decode a block at `pos` in a fully buffered trace.
/// Never throws: failures come back as an error class so the salvage
/// scanner can classify the damage and keep probing.
enum class BlockError { kNone, kVarint, kTruncated, kCrc, kDecode };

struct TryBlock {
  bool ok = false;
  bool end_marker = false;
  std::size_t next = 0;  ///< first byte after the block (valid when ok)
  BlockError error = BlockError::kNone;
};

TryBlock try_block(std::span<const std::uint8_t> buf, std::size_t pos,
                   std::vector<FlowRecord>* out) {
  TryBlock t;
  const auto read_varint = [&](std::size_t& p, std::uint64_t& v) -> bool {
    v = 0;
    int shift = 0;
    for (;;) {
      if (p >= buf.size() || shift > 63) return false;
      const std::uint8_t b = buf[p++];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return true;
      shift += 7;
    }
  };
  std::size_t p = pos;
  std::uint64_t count = 0;
  if (!read_varint(p, count)) {
    t.error = BlockError::kVarint;
    return t;
  }
  if (count == 0) {
    t.ok = true;
    t.end_marker = true;
    t.next = p;
    return t;
  }
  std::uint64_t payload_size = 0;
  if (count > kBlockRecords || !read_varint(p, payload_size)) {
    t.error = BlockError::kVarint;
    return t;
  }
  if (payload_size < 1 + kMinRecordPayloadBytes * count ||
      payload_size > kMaxVarintBytes + kMaxRecordPayloadBytes * count) {
    t.error = BlockError::kVarint;
    return t;
  }
  if (p + payload_size + 4 > buf.size()) {
    t.error = BlockError::kTruncated;
    return t;
  }
  const auto payload = buf.subspan(p, payload_size);
  p += payload_size;
  std::uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected |= static_cast<std::uint32_t>(buf[p++]) << (8 * i);
  }
  if (crc32(payload) != expected) {
    t.error = BlockError::kCrc;
    return t;
  }
  try {
    std::vector<FlowRecord> records;
    decode_payload(payload, count, records);
    if (out != nullptr) {
      out->insert(out->end(), records.begin(), records.end());
    }
  } catch (const FormatError&) {
    t.error = BlockError::kDecode;
    return t;
  }
  t.ok = true;
  t.next = p;
  return t;
}

void write_u16(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff),
                         static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void write_u32(std::ostream& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(bytes, 4);
}

std::uint16_t read_u16(std::istream& in) {
  unsigned char bytes[2];
  in.read(reinterpret_cast<char*>(bytes), 2);
  if (!in) throw FormatError("trace: truncated header");
  return static_cast<std::uint16_t>(bytes[0] | (bytes[1] << 8));
}

std::uint32_t read_u32(std::istream& in) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in) throw FormatError("trace: truncated header");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
  return v;
}

/// Reads a varint directly from the stream (used for block headers),
/// advancing `offset` by the bytes consumed. Returns false cleanly on
/// immediate EOF.
bool stream_varint(std::istream& in, std::uint64_t& out, std::uint64_t& offset) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) {
      if (shift == 0) return false;
      throw FormatError("trace: truncated block header at byte " +
                        std::to_string(offset));
    }
    ++offset;
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) {
      out = v;
      return true;
    }
    shift += 7;
    if (shift > 63) {
      throw FormatError("trace: varint overflow at byte " +
                        std::to_string(offset));
    }
  }
}

void stream_put_varint(std::ostream& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.put(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.put(static_cast<char>(v));
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& table = crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (std::uint8_t b : bytes) crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

TraceWriter::TraceWriter(std::ostream& out, std::uint32_t sampling_denominator)
    : out_(out) {
  write_u32(out_, kTraceMagic);
  write_u16(out_, kTraceVersion);
  write_u32(out_, sampling_denominator);
  pending_.reserve(kBlockRecords);
}

TraceWriter::~TraceWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an explicit finish() surfaces errors.
  }
}

void TraceWriter::write(const FlowRecord& record) {
  pending_.push_back(record);
  ++count_;
  if (pending_.size() >= kBlockRecords) flush_block();
}

void TraceWriter::write_all(std::span<const FlowRecord> records) {
  for (const auto& r : records) write(r);
}

void TraceWriter::flush_block() {
  if (pending_.empty()) return;
  std::vector<std::uint8_t> payload;
  payload.reserve(pending_.size() * 16);
  const util::Minute base = pending_.front().minute;
  put_varint(payload, zigzag64(base));
  for (const FlowRecord& r : pending_) {
    put_varint(payload, zigzag64(r.minute - base));
    put_varint(payload, r.src_ip.value());
    put_varint(payload, r.dst_ip.value());
    put_varint(payload, r.src_port);
    put_varint(payload, r.dst_port);
    put_varint(payload, static_cast<std::uint8_t>(r.protocol));
    put_varint(payload, static_cast<std::uint8_t>(r.tcp_flags));
    put_varint(payload, r.packets);
    put_varint(payload, r.bytes);
  }
  stream_put_varint(out_, pending_.size());
  stream_put_varint(out_, payload.size());
  out_.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  write_u32(out_, crc32(payload));
  if (!out_) throw FormatError("trace: write failure");
  pending_.clear();
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_block();
  stream_put_varint(out_, 0);  // end marker
  out_.flush();
  finished_ = true;
  if (!out_) throw FormatError("trace: write failure at finish");
}

std::uint64_t IngestReport::bytes_lost() const noexcept {
  std::uint64_t total = 0;
  for (const auto& range : lost_ranges) total += range.bytes;
  return total;
}

bool IngestReport::clean() const noexcept {
  return header_valid && end_marker_seen && blocks_skipped == 0 &&
         lost_ranges.empty() &&
         crc_mismatches + truncations + varint_errors + decode_errors == 0;
}

TraceReader::TraceReader(std::istream& in, ReadMode mode)
    : in_(in), mode_(mode) {
  if (mode_ == ReadMode::kSalvage) {
    salvage_all();
    return;
  }
  if (read_u32(in_) != kTraceMagic) throw FormatError("trace: bad magic");
  const std::uint16_t version = read_u16(in_);
  if (version != kTraceVersion) {
    throw FormatError("trace: unsupported version " + std::to_string(version));
  }
  sampling_ = read_u32(in_);
  if (sampling_ == 0) throw FormatError("trace: zero sampling denominator");
  offset_ = kHeaderBytes;
}

bool TraceReader::load_block() {
  if (eof_) return false;
  const std::uint64_t block_offset = offset_;
  const std::string where = "block " + std::to_string(block_index_) +
                            " at byte " + std::to_string(block_offset);
  std::uint64_t record_count = 0;
  if (!stream_varint(in_, record_count, offset_)) {
    throw FormatError("trace: missing end marker after " + where);
  }
  if (record_count == 0) {
    eof_ = true;
    report_.end_marker_seen = true;
    return false;
  }
  std::uint64_t payload_size = 0;
  if (!stream_varint(in_, payload_size, offset_)) {
    throw FormatError("trace: truncated header of " + where);
  }
  std::vector<std::uint8_t> payload(payload_size);
  in_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payload_size));
  if (!in_) {
    throw FormatError("trace: truncated payload in " + where + " (wanted " +
                      std::to_string(payload_size) + " bytes)");
  }
  offset_ += payload_size;
  unsigned char crc_bytes[4];
  in_.read(reinterpret_cast<char*>(crc_bytes), 4);
  if (!in_) throw FormatError("trace: truncated CRC of " + where);
  offset_ += 4;
  std::uint32_t expected_crc = 0;
  for (int i = 0; i < 4; ++i) {
    expected_crc |= static_cast<std::uint32_t>(crc_bytes[i]) << (8 * i);
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != expected_crc) {
    throw FormatError("trace: CRC mismatch in " + where + ": expected " +
                      hex32(expected_crc) + ", actual " + hex32(actual_crc));
  }

  block_.clear();
  try {
    decode_payload(payload, record_count, block_);
  } catch (const FormatError& e) {
    throw FormatError(std::string(e.what()) + " (" + where + ")");
  }
  cursor_ = 0;
  ++block_index_;
  ++report_.blocks_decoded;
  report_.records_recovered += record_count;
  report_.bytes_scanned = offset_;
  return true;
}

void TraceReader::salvage_all() {
  std::vector<std::uint8_t> buf{std::istreambuf_iterator<char>(in_),
                                std::istreambuf_iterator<char>()};
  report_.bytes_scanned = buf.size();
  const std::span<const std::uint8_t> bytes{buf};

  std::size_t pos = 0;
  report_.header_valid = false;
  if (buf.size() >= kHeaderBytes) {
    std::uint32_t magic = 0;
    std::uint32_t sampling = 0;
    for (int i = 0; i < 4; ++i) {
      magic |= static_cast<std::uint32_t>(buf[static_cast<std::size_t>(i)])
               << (8 * i);
      sampling |= static_cast<std::uint32_t>(buf[static_cast<std::size_t>(6 + i)])
                  << (8 * i);
    }
    const std::uint16_t version =
        static_cast<std::uint16_t>(buf[4] | (buf[5] << 8));
    if (magic == kTraceMagic && version == kTraceVersion && sampling != 0) {
      report_.header_valid = true;
      sampling_ = sampling;
      pos = kHeaderBytes;
    }
  }

  // Scan: decode blocks where possible; on damage, probe byte-by-byte for
  // the next position where a whole block (header, plausible sizes, CRC,
  // payload) decodes, and account the gap as one lost range.
  bool in_damage = false;
  std::size_t damage_start = 0;
  const auto tally = [&](BlockError error) {
    switch (error) {
      case BlockError::kVarint: ++report_.varint_errors; break;
      case BlockError::kTruncated: ++report_.truncations; break;
      case BlockError::kCrc: ++report_.crc_mismatches; break;
      case BlockError::kDecode: ++report_.decode_errors; break;
      case BlockError::kNone: break;
    }
  };
  const auto close_damage = [&](std::size_t end) {
    if (!in_damage) return;
    report_.lost_ranges.push_back({damage_start, end - damage_start});
    ++report_.blocks_skipped;
    in_damage = false;
  };

  while (pos < buf.size()) {
    const TryBlock t = try_block(bytes, pos, &block_);
    if (t.ok && t.end_marker && t.next != buf.size()) {
      // A zero count mid-file is either corruption or an end marker with
      // trailing garbage; keep scanning so blocks after it are recovered.
      if (!in_damage) {
        in_damage = true;
        damage_start = pos;
        ++report_.varint_errors;
      }
      ++pos;
      continue;
    }
    if (t.ok) {
      close_damage(pos);
      if (t.end_marker) {
        report_.end_marker_seen = true;
        pos = t.next;
        break;
      }
      ++report_.blocks_decoded;
      pos = t.next;
      continue;
    }
    if (!in_damage) {
      in_damage = true;
      damage_start = pos;
      tally(t.error);
    }
    ++pos;
  }
  close_damage(buf.size());
  report_.records_recovered = block_.size();
  cursor_ = 0;
  eof_ = true;  // everything already decoded into block_
}

bool TraceReader::next(FlowRecord& out) {
  while (cursor_ >= block_.size()) {
    if (!load_block()) return false;
  }
  out = block_[cursor_++];
  return true;
}

std::vector<FlowRecord> TraceReader::read_all() {
  std::vector<FlowRecord> all;
  FlowRecord r;
  while (next(r)) all.push_back(r);
  return all;
}

void write_trace_file(const std::string& path, std::span<const FlowRecord> records,
                      std::uint32_t sampling_denominator) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw FormatError("trace: cannot open for writing: " + path);
  TraceWriter writer(out, sampling_denominator);
  writer.write_all(records);
  writer.finish();
}

std::vector<FlowRecord> read_trace_file(const std::string& path,
                                        std::uint32_t* sampling) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FormatError("trace: cannot open for reading: " + path);
  TraceReader reader(in);
  if (sampling != nullptr) *sampling = reader.sampling_denominator();
  return reader.read_all();
}

SalvageResult salvage_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FormatError("trace: cannot open for reading: " + path);
  TraceReader reader(in, ReadMode::kSalvage);
  SalvageResult result;
  result.records = reader.read_all();
  result.sampling = reader.sampling_denominator();
  result.report = reader.report();
  return result;
}

std::vector<BlockSpan> trace_layout(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) throw FormatError("trace: truncated header");
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(bytes[static_cast<std::size_t>(i)])
             << (8 * i);
  }
  if (magic != kTraceMagic) throw FormatError("trace: bad magic");

  std::vector<BlockSpan> layout;
  std::size_t pos = kHeaderBytes;
  std::uint64_t record_index = 0;
  for (;;) {
    const TryBlock t = try_block(bytes, pos, nullptr);
    if (!t.ok) {
      throw FormatError("trace: malformed block " +
                        std::to_string(layout.size()) + " at byte " +
                        std::to_string(pos));
    }
    if (t.end_marker) {
      if (t.next != bytes.size()) {
        throw FormatError("trace: trailing bytes after end marker");
      }
      return layout;
    }
    // Re-derive the header split (count/payload varints) for the span.
    std::size_t p = pos;
    std::uint64_t record_count = 0;
    std::uint64_t payload_size = 0;
    const auto read_varint = [&](std::uint64_t& v) {
      v = 0;
      int shift = 0;
      std::uint8_t b;
      do {
        b = bytes[p++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        shift += 7;
      } while ((b & 0x80) != 0);
    };
    read_varint(record_count);
    read_varint(payload_size);
    BlockSpan span;
    span.offset = pos;
    span.size = t.next - pos;
    span.payload_offset = p;
    span.payload_size = payload_size;
    span.record_count = record_count;
    span.first_record = record_index;
    layout.push_back(span);
    record_index += record_count;
    pos = t.next;
  }
}

}  // namespace dm::netflow
