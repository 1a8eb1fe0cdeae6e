#include "netflow/segment_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "netflow/trace_io.h"
#include "util/error.h"

namespace dm::netflow {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kMagic = 0x47534D44u;  // "DMSG" read little-endian
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderSize = 56;
/// Geometry sanity cap: no single section of a real segment approaches 1 TiB
/// (segments seal at tens of MiB), so any header field past this is damage,
/// and the cap keeps the expected-size arithmetic below overflow-free.
constexpr std::uint64_t kMaxSectionBytes = 1ull << 40;

void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Section offsets within the body (relative to file offset kHeaderSize,
/// which is 8-aligned — so payload_offs/checkpoints stay 8-aligned in the
/// mapping).
struct Geometry {
  std::uint64_t off_payload_offs = 0;
  std::uint64_t off_checkpoints = 0;
  std::uint64_t off_headers = 0;
  std::uint64_t off_payload = 0;
  std::uint64_t body_bytes = 0;
};

Geometry geometry_of(const SegmentMeta& m) {
  Geometry g;
  g.off_payload_offs = (m.runs * sizeof(std::uint32_t) + 7) & ~std::uint64_t{7};
  g.off_checkpoints = g.off_payload_offs + m.runs * sizeof(std::uint64_t);
  g.off_headers = g.off_checkpoints + m.checkpoints * sizeof(ColumnarCheckpoint);
  g.off_payload = g.off_headers + m.header_bytes;
  g.body_bytes = g.off_payload + m.payload_bytes;
  return g;
}

/// Structural plausibility of a decoded header. Damage that survives the
/// header CRC is astronomically unlikely, but the checks are cheap and keep
/// the size arithmetic overflow-free.
bool plausible(const SegmentMeta& m) {
  if (m.records > (1ull << 32) || m.runs > m.records) return false;
  if (m.checkpoints > m.runs) return false;
  if (m.runs > 0 && m.checkpoints == 0) return false;  // seek needs cp 0
  if (m.header_bytes > kMaxSectionBytes) return false;
  if (m.payload_bytes > kMaxSectionBytes) return false;
  return true;
}

std::vector<std::string> list_segment_files(const std::string& directory) {
  if (!fs::is_directory(directory)) {
    throw FormatError("segment store: no such directory: " + directory);
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() == ".dmseg") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

void write_segment_file(const std::string& path,
                        const ColumnarRecords& store) {
  const ColumnarView v = store.view();
  const ColumnarRecords::BufferSizes sizes = store.buffer_sizes();
  SegmentMeta meta;
  // dmlint: covers(meta, SegmentMeta)
  meta.records = v.records;
  meta.runs = sizes.runs;
  meta.checkpoints = sizes.checkpoints;
  meta.header_bytes = sizes.header_bytes;
  meta.payload_bytes = sizes.payload_bytes;
  // dmlint: covers-end(meta)

  const Geometry g = geometry_of(meta);
  std::vector<std::uint8_t> body(static_cast<std::size_t>(g.body_bytes), 0);
  const auto copy_section = [&](std::uint64_t off, const void* src,
                                std::uint64_t bytes) {
    if (bytes > 0) std::memcpy(body.data() + off, src, bytes);
  };
  copy_section(0, v.run_starts, meta.runs * sizeof(std::uint32_t));
  copy_section(g.off_payload_offs, v.payload_offs,
               meta.runs * sizeof(std::uint64_t));
  copy_section(g.off_checkpoints, v.checkpoints,
               meta.checkpoints * sizeof(ColumnarCheckpoint));
  copy_section(g.off_headers, v.headers, meta.header_bytes);
  copy_section(g.off_payload, v.payload, meta.payload_bytes);

  std::uint8_t header[kHeaderSize] = {};
  store_u32(header + 0, kMagic);
  store_u16(header + 4, kVersion);
  store_u16(header + 6, 0);  // flags
  store_u64(header + 8, meta.records);
  store_u64(header + 16, meta.runs);
  store_u64(header + 24, meta.checkpoints);
  store_u64(header + 32, meta.header_bytes);
  store_u64(header + 40, meta.payload_bytes);
  store_u32(header + 48, crc32({body.data(), body.size()}));
  store_u32(header + 52, crc32({header, 52}));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("segment store: cannot create " + path);
  out.write(reinterpret_cast<const char*>(header), kHeaderSize);
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) throw Error("segment store: short write to " + path);
}

MappedSegment::~MappedSegment() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(base_), file_bytes_);
  }
}

MappedSegment::MapAttempt MappedSegment::try_map(const std::string& path) {
  MapAttempt out;
  const auto fail = [&](SegmentFileStatus status, std::string detail) {
    out.status = status;
    out.detail = std::move(detail);
    out.segment.reset();
    return out;
  };

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return fail(SegmentFileStatus::kBadHeader,
                "cannot open: " + std::string(std::strerror(errno)));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return fail(SegmentFileStatus::kBadHeader, "cannot stat file");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  out.file_bytes = size;
  if (size < kHeaderSize) {
    ::close(fd);
    return fail(SegmentFileStatus::kTruncated,
                "file shorter than the 56-byte segment header");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (base == MAP_FAILED) {
    return fail(SegmentFileStatus::kBadHeader,
                "mmap failed: " + std::string(std::strerror(errno)));
  }

  // Hand ownership to the (private-constructor) object immediately so every
  // early return below unmaps.
  std::shared_ptr<MappedSegment> seg(new MappedSegment());
  seg->base_ = static_cast<const std::uint8_t*>(base);
  seg->file_bytes_ = size;

  const std::uint8_t* h = seg->base_;
  if (load_u32(h) != kMagic) {
    return fail(SegmentFileStatus::kBadHeader, "bad magic (not a .dmseg)");
  }
  if (load_u16(h + 4) != kVersion) {
    return fail(SegmentFileStatus::kBadHeader,
                "unsupported segment version " +
                    std::to_string(load_u16(h + 4)));
  }
  const std::uint32_t stored_header_crc = load_u32(h + 52);
  const std::uint32_t actual_header_crc = crc32({h, 52});
  if (stored_header_crc != actual_header_crc) {
    return fail(SegmentFileStatus::kBadHeader, "header CRC mismatch");
  }

  SegmentMeta meta;
  // dmlint: covers(meta, SegmentMeta)
  meta.records = load_u64(h + 8);
  meta.runs = load_u64(h + 16);
  meta.checkpoints = load_u64(h + 24);
  meta.header_bytes = load_u64(h + 32);
  meta.payload_bytes = load_u64(h + 40);
  // dmlint: covers-end(meta)
  out.header_records = meta.records;
  if (!plausible(meta)) {
    return fail(SegmentFileStatus::kBadHeader, "implausible segment geometry");
  }
  const Geometry g = geometry_of(meta);
  const std::uint64_t expected = kHeaderSize + g.body_bytes;
  if (size < expected) {
    return fail(SegmentFileStatus::kTruncated,
                "file is " + std::to_string(size) + " bytes, header implies " +
                    std::to_string(expected));
  }
  if (size > expected) {
    return fail(SegmentFileStatus::kBadHeader,
                "trailing bytes past the segment body");
  }

  seg->meta_ = meta;
  seg->body_crc_ = load_u32(h + 48);
  const std::uint8_t* body = seg->base_ + kHeaderSize;
  seg->view_ = ColumnarView{
      body + g.off_headers,
      body + g.off_payload,
      reinterpret_cast<const std::uint32_t*>(body),
      reinterpret_cast<const std::uint64_t*>(body + g.off_payload_offs),
      reinterpret_cast<const ColumnarCheckpoint*>(body + g.off_checkpoints),
      static_cast<std::size_t>(meta.runs),
      static_cast<std::size_t>(meta.checkpoints),
      static_cast<std::size_t>(meta.records)};
  out.segment = std::move(seg);
  return out;
}

std::shared_ptr<const MappedSegment> MappedSegment::map(
    const std::string& path) {
  MapAttempt attempt = try_map(path);
  if (attempt.status != SegmentFileStatus::kOk) {
    throw FormatError("segment " + path + ": " + attempt.detail);
  }
  return std::move(attempt.segment);
}

bool MappedSegment::body_crc_ok() const noexcept {
  return crc32({base_ + kHeaderSize, file_bytes_ - kHeaderSize}) == body_crc_;
}

SegmentStore SegmentStore::open(const std::string& directory) {
  SegmentStore store;
  for (const std::string& path : list_segment_files(directory)) {
    const std::shared_ptr<const MappedSegment> seg = MappedSegment::map(path);
    if (!seg->body_crc_ok()) {
      throw FormatError("segment " + path + ": body CRC mismatch");
    }
    store.segments_.push_back(Segment{path, store.total_records_,
                                      seg->meta().records, seg->file_bytes()});
    store.total_records_ += seg->meta().records;
  }
  return store;
}

std::pair<SegmentStore, SegmentStore::SalvageReport> SegmentStore::salvage(
    const std::string& directory) {
  SegmentStore store;
  SalvageReport report;
  for (const std::string& path : list_segment_files(directory)) {
    MappedSegment::MapAttempt attempt = MappedSegment::try_map(path);
    LedgerEntry entry;
    entry.path = path;
    entry.status = attempt.status;
    entry.file_bytes = attempt.file_bytes;
    entry.records = attempt.header_records;
    entry.detail = attempt.detail;
    if (attempt.status == SegmentFileStatus::kOk &&
        !attempt.segment->body_crc_ok()) {
      entry.status = SegmentFileStatus::kBodyCorrupt;
      entry.detail = "body CRC mismatch";
      attempt.segment.reset();
    }
    if (entry.status == SegmentFileStatus::kOk) {
      report.segments_recovered += 1;
      report.records_recovered += entry.records;
      store.segments_.push_back(Segment{path, store.total_records_,
                                        entry.records, entry.file_bytes});
      store.total_records_ += entry.records;
    } else {
      report.segments_damaged += 1;
      report.records_lost += entry.records;
    }
    report.entries.push_back(std::move(entry));
  }
  return {std::move(store), std::move(report)};
}

std::uint64_t SegmentStore::file_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const Segment& s : segments_) total += s.file_bytes;
  return total;
}

std::shared_ptr<const MappedSegment> SegmentStore::map_segment(
    std::size_t i) const {
  return MappedSegment::map(segments_[i].path);
}

std::size_t SegmentStore::segment_containing(
    std::size_t record_index) const noexcept {
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), record_index,
      [](std::size_t r, const Segment& s) { return r < s.first_record; });
  return static_cast<std::size_t>(it - segments_.begin()) - 1;
}

RecordStore::Cursor RecordStore::cursor_at(std::size_t record_index) const {
  Cursor c;
  c.limit_ = size();
  if (!spilled_) {
    c.inner_ = resident_.cursor_at(record_index);
    return c;
  }
  c.store_ = &segments_;
  if (record_index >= c.limit_) {
    c.next_segment_ = segments_.segment_count();
    c.base_ = c.limit_;
    return c;
  }
  const std::size_t s = segments_.segment_containing(record_index);
  const SegmentStore::Segment& seg = segments_.segments()[s];
  c.next_segment_ = s + 1;
  c.base_ = static_cast<std::size_t>(seg.first_record);
  c.mapped_ = segments_.map_segment(s);
  c.inner_ = ColumnarRecords::seek(c.mapped_->view(), record_index - c.base_);
  return c;
}

bool RecordStore::Cursor::advance_segment() {
  mapped_.reset();
  if (store_ == nullptr) return false;
  const std::vector<SegmentStore::Segment>& segs = store_->segments();
  while (next_segment_ < segs.size() &&
         segs[next_segment_].first_record < limit_) {
    const SegmentStore::Segment& seg = segs[next_segment_];
    base_ = static_cast<std::size_t>(seg.first_record);
    mapped_ = store_->map_segment(next_segment_);
    ++next_segment_;
    inner_.reset(mapped_->view(), limit_ - base_);
    if (inner_.next()) return true;
    mapped_.reset();
  }
  return false;
}

RecordStore::Range RecordStore::range(std::size_t first,
                                      std::size_t last) const {
  if (last > size()) last = size();
  if (first > last) first = last;
  Cursor c = cursor_at(first);
  c.limit_ = last;
  if (last >= c.base_) c.inner_.clip(last - c.base_);
  return Range(c, last - first);
}

RecordStore::Range RecordStore::all() const { return range(0, size()); }

Direction RecordStore::direction_of(std::size_t record_index) const {
  Cursor c = cursor_at(record_index);
  c.next();
  return c.direction();
}

SpillWriter::SpillWriter(const SpillConfig& config)
    : config_(config), policy_(config) {
  if (!config_.enabled()) {
    throw Error("SpillWriter: spill directory not configured");
  }
  fs::create_directories(config_.directory);
  // Stale segments from an earlier run in the same directory would be
  // picked up by open()/salvage(); start from a clean slate.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(config_.directory)) {
    if (entry.path().extension() == ".dmseg") fs::remove(entry.path());
  }
}

void SpillWriter::append(ColumnarRecords&& shard) {
  // The window index space is 32-bit pipeline-wide; spilling moves bytes
  // out of RAM but not indices out of u32.
  if (sealed_records_ + pending_.size() + shard.size() >
      static_cast<std::size_t>(UINT32_MAX) + 1) {
    throw Error("SpillWriter: record count exceeds 2^32");
  }
  pending_.append(std::move(shard));
  if (!pending_.empty() && policy_.should_seal(pending_.encoded_bytes())) {
    seal();
  }
}

void SpillWriter::seal() {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06zu.dmseg",
                store_.segments_.size());
  const std::string path = (fs::path(config_.directory) / name).string();
  write_segment_file(path, pending_);
  store_.segments_.push_back(SegmentStore::Segment{
      path, sealed_records_, pending_.size(), fs::file_size(path)});
  store_.total_records_ += pending_.size();
  sealed_records_ += pending_.size();
  pending_ = ColumnarRecords();
}

RecordStore SpillWriter::finish() && {
  if (store_.segment_count() == 0) {
    // Zero spill waves: the whole trace fit under the seal threshold.
    pending_.shrink_to_fit();
    return RecordStore(std::move(pending_));
  }
  if (!pending_.empty()) seal();
  return RecordStore(std::move(store_));
}

}  // namespace dm::netflow
