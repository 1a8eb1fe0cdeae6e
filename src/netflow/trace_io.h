// Binary serialization of sampled NetFlow traces.
//
// Format (little-endian, varint-packed):
//   file   := header block* end-block
//   header := magic 'DMNF' (u32) | version (u16) | sampling denominator (u32)
//   block  := record-count varint (>0) | payload-size varint | payload | crc32
//   end    := record-count varint == 0
// Payload packs each record's fields as varints, with the minute
// delta-encoded against the block's first record. A CRC32 of the payload
// guards against truncation/corruption; strict readers throw
// dm::FormatError naming the byte offset, block index, and expected vs
// actual CRC. Salvage readers instead resynchronize on the next decodable
// block boundary and tally the damage in an IngestReport.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "netflow/flow_record.h"

namespace dm::netflow {

inline constexpr std::uint32_t kTraceMagic = 0x464e4d44;  // "DMNF"
inline constexpr std::uint16_t kTraceVersion = 1;

/// Streams FlowRecords into an ostream in the block format above.
class TraceWriter {
 public:
  /// Writes the file header immediately. The stream must outlive the writer.
  TraceWriter(std::ostream& out, std::uint32_t sampling_denominator);

  /// Destructor finishes the file (flushes the open block and writes the end
  /// marker) if finish() was not called; errors are swallowed there, so call
  /// finish() explicitly when you care.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const FlowRecord& record);
  void write_all(std::span<const FlowRecord> records);

  /// Flushes pending records and writes the end marker. Idempotent.
  void finish();

  [[nodiscard]] std::uint64_t records_written() const noexcept { return count_; }

 private:
  void flush_block();

  std::ostream& out_;
  std::vector<FlowRecord> pending_;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

/// How a TraceReader treats damaged input.
enum class ReadMode {
  /// Throw dm::FormatError on the first malformed byte (default).
  kStrict,
  /// Resynchronize on the next decodable block and keep going; damage is
  /// tallied in the IngestReport instead of thrown.
  kSalvage,
};

/// What a salvage pass recovered and what it had to give up. One entry in
/// `lost_ranges` per contiguous damaged byte region skipped over; the
/// per-error counters classify the failure that opened each region.
struct IngestReport {
  // dmlint: must-use
  bool header_valid = true;     ///< magic/version/sampling parsed cleanly
  bool end_marker_seen = false; ///< the trailing zero-count block was intact
  std::uint64_t bytes_scanned = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t blocks_skipped = 0;  ///< damaged regions resynchronized over
  std::uint64_t records_recovered = 0;
  std::uint64_t crc_mismatches = 0;  ///< payload intact-looking but CRC wrong
  std::uint64_t truncations = 0;     ///< block claims bytes past end of file
  std::uint64_t varint_errors = 0;   ///< malformed/implausible block header
  std::uint64_t decode_errors = 0;   ///< CRC passed but payload inconsistent

  struct LostRange {
    std::uint64_t offset = 0;  ///< first unrecoverable byte
    std::uint64_t bytes = 0;   ///< length of the skipped region
  };
  std::vector<LostRange> lost_ranges;

  [[nodiscard]] std::uint64_t bytes_lost() const noexcept;
  /// True when the whole file decoded with no damage of any kind.
  [[nodiscard]] bool clean() const noexcept;
};

/// Reads a trace produced by TraceWriter. In strict mode validates magic,
/// version and per-block CRCs, throwing dm::FormatError (with byte offset,
/// block index, and expected-vs-actual CRC) on any mismatch. In salvage
/// mode the whole stream is decoded up front, skipping damaged regions;
/// report() describes the recovery.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in, ReadMode mode = ReadMode::kStrict);

  [[nodiscard]] std::uint32_t sampling_denominator() const noexcept {
    return sampling_;
  }

  /// Salvage statistics. Fully populated immediately after construction in
  /// salvage mode; in strict mode only bytes/blocks seen so far.
  [[nodiscard]] const IngestReport& report() const noexcept { return report_; }

  /// Reads the next record; false at end of file.
  [[nodiscard]] bool next(FlowRecord& out);

  /// Reads all remaining records.
  [[nodiscard]] std::vector<FlowRecord> read_all();

 private:
  bool load_block();
  void salvage_all();

  std::istream& in_;
  ReadMode mode_ = ReadMode::kStrict;
  std::uint32_t sampling_ = 0;
  std::vector<FlowRecord> block_;
  std::size_t cursor_ = 0;
  bool eof_ = false;
  std::uint64_t offset_ = 0;       ///< bytes consumed (strict mode)
  std::uint64_t block_index_ = 0;  ///< blocks decoded (strict mode)
  IngestReport report_;
};

/// Convenience round-trips through files on disk.
void write_trace_file(const std::string& path, std::span<const FlowRecord> records,
                      std::uint32_t sampling_denominator);
[[nodiscard]] std::vector<FlowRecord> read_trace_file(const std::string& path,
                                                      std::uint32_t* sampling = nullptr);

/// Salvage-reads a possibly damaged trace file in one call.
struct SalvageResult {
  // dmlint: must-use
  std::vector<FlowRecord> records;
  std::uint32_t sampling = 0;
  IngestReport report;
};
[[nodiscard]] SalvageResult salvage_trace_file(const std::string& path);

/// Byte extents of one block in a serialized trace — the map a fault
/// injector (or forensic tooling) needs to aim corruption at specific
/// blocks. Offsets are absolute file offsets.
struct BlockSpan {
  std::uint64_t offset = 0;          ///< first byte of the block header
  std::uint64_t size = 0;            ///< header varints + payload + CRC
  std::uint64_t payload_offset = 0;  ///< first payload byte
  std::uint64_t payload_size = 0;
  std::uint64_t record_count = 0;
  std::uint64_t first_record = 0;    ///< cumulative record index of the block
};

/// Walks a WELL-FORMED serialized trace (header through end marker) and
/// returns the byte extents of every block. Throws dm::FormatError on any
/// damage — use TraceReader in salvage mode for damaged input.
[[nodiscard]] std::vector<BlockSpan> trace_layout(
    std::span<const std::uint8_t> bytes);

/// CRC32 (IEEE 802.3 polynomial) over a byte span; exposed for tests.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

}  // namespace dm::netflow
