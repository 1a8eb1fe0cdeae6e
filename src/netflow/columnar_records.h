// Columnar compressed storage for the aggregated trace's oriented records.
//
// The canonical record order — (vip, direction, minute, remote, arrival
// index) — makes the kept-record stream extremely regular: (vip, direction,
// minute) is constant across each window's run of records and remote IPs
// ascend within a run. ColumnarRecords exploits that:
//
//   headers_        one entry per run: zigzag-varint delta of the packed
//                   (vip << 1 | direction) key and of the minute, each
//                   relative to the previous run (wraparound arithmetic, so
//                   any ingested minute round-trips exactly).
//   payload_        per record: the remote IP (absolute varint at the run
//                   start, zigzag delta inside the run) followed by varint
//                   src_port, dst_port, protocol, tcp_flags, packets, bytes.
//   run_starts_     record index of each run's first record (run lengths are
//                   implicit); payload_offs_ holds each run's payload byte
//                   offset. Together they give O(log runs) seek to any
//                   window's first_record.
//   checkpoints_    absolute (key, minute, header offset) every
//                   kCheckpointRuns runs, so a seek decodes at most that
//                   many run headers before streaming.
//
// At paper scale this keeps ~21M records in ~0.3 GiB where the
// array-of-structs form (40-byte FlowRecord + 1-byte Direction per record)
// needed ~0.85 GiB, and decoding is a zero-allocation forward scan over
// dense bytes. See DESIGN.md §5c for the full layout rationale.
//
// Stores are built shard-locally and concatenated in shard order via
// append(); the *decoded* sequence is byte-identical for any thread count
// (the internal buffer layout may differ — e.g. checkpoint spacing — which
// is why equivalence is defined on decoded records, windows, and exhibit
// outputs, all locked down by tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "netflow/flow_record.h"
#include "netflow/varint.h"

namespace dm::netflow {

/// Absolute decode state captured every kCheckpointRuns runs so a seek
/// decodes a bounded number of run headers. Fixed-width POD — segment files
/// store checkpoint arrays verbatim (see segment_store.h).
struct ColumnarCheckpoint {
  std::uint64_t run = 0;          ///< run this checkpoint describes
  std::uint64_t next_header = 0;  ///< headers offset just past its header
  std::uint64_t key = 0;          ///< absolute (vip << 1) | direction
  std::uint64_t minute = 0;       ///< absolute minute (wraparound u64)
};

static_assert(sizeof(ColumnarCheckpoint) == 32,
              "segment files store checkpoints verbatim");

/// Non-owning view over one encoded store: the five arrays plus the record
/// count. A Cursor decodes through a view, so the same streaming decoder
/// serves both the resident vectors (ColumnarRecords::view()) and the
/// memory-mapped segment files of the spill tier. Pointers are borrowed —
/// valid only while the backing store is alive and unmodified.
struct ColumnarView {
  const std::uint8_t* headers = nullptr;
  const std::uint8_t* payload = nullptr;
  const std::uint32_t* run_starts = nullptr;
  const std::uint64_t* payload_offs = nullptr;
  const ColumnarCheckpoint* checkpoints = nullptr;
  std::size_t runs = 0;
  std::size_t checkpoint_count = 0;
  std::size_t records = 0;
};

class ColumnarRecords {
 public:
  class Cursor;
  class Range;

  ColumnarRecords() = default;

  /// Appends one oriented record. Consecutive records sharing
  /// (vip, direction, minute) extend the current run; the canonical sort
  /// makes runs long and remote deltas small, but any sequence — sorted or
  /// not — round-trips exactly.
  void push_back(const FlowRecord& record, Direction direction);

  /// Appends another store's records after this one's — the shard-order
  /// concatenation step. Indices and offsets are rebased in bulk; only the
  /// first run header of `other` is re-encoded. `other` is left empty.
  void append(ColumnarRecords&& other);

  void shrink_to_fit();

  /// Current buffer sizes — summed by merge loops to pre-size the
  /// destination via reserve() so shard appends never geometrically
  /// over-allocate the multi-hundred-MiB payload buffer.
  struct BufferSizes {
    std::uint64_t header_bytes = 0;
    std::uint64_t payload_bytes = 0;
    std::size_t runs = 0;
    std::size_t checkpoints = 0;
  };
  [[nodiscard]] BufferSizes buffer_sizes() const noexcept;

  /// Reserves room for `extra` on top of the current contents. Appending a
  /// store re-encodes its first run header (≤ 20 bytes); callers folding N
  /// stores add that slack per store.
  void reserve(const BufferSizes& extra);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return run_starts_.size();
  }

  /// Resident bytes of the encoded representation (payload + run headers +
  /// seek index) — the bench's encoded-bytes/record numerator.
  [[nodiscard]] std::uint64_t encoded_bytes() const noexcept;

  /// Cursor positioned before `record_index` (pass size() for an exhausted
  /// cursor). Seek cost: two binary searches plus at most
  /// kCheckpointRuns - 1 header decodes (a checkpoint captures the decode
  /// state just *past* its own run's header, so only the runs after it, up
  /// to the next checkpoint, are re-decoded; append() preserves the <= 64
  /// run spacing) plus a skip-decode of earlier records in the same run —
  /// O(1) when the index is a run start, as every window's first_record is.
  [[nodiscard]] Cursor cursor_at(std::size_t record_index) const noexcept;

  /// Decoded view of records [first, last).
  [[nodiscard]] Range range(std::size_t first, std::size_t last) const noexcept;
  [[nodiscard]] Range all() const noexcept;

  /// Direction of record `record_index` (< size()). Costs a seek; iterate a
  /// Range (whose iterator also exposes direction()) for bulk access.
  [[nodiscard]] Direction direction_of(std::size_t record_index) const noexcept;

  /// Borrowed view of the encoded arrays — invalidated by any mutation
  /// (push_back/append/shrink_to_fit) exactly like vector iterators.
  [[nodiscard]] ColumnarView view() const noexcept {
    return ColumnarView{headers_.data(),      payload_.data(),
                        run_starts_.data(),   payload_offs_.data(),
                        checkpoints_.data(),  run_starts_.size(),
                        checkpoints_.size(),  size_};
  }

  /// View-based seek: cursor positioned before `record_index` of `view`
  /// (pass view.records for an exhausted cursor). Same cost contract as
  /// cursor_at(); this is the entry point segment cursors use.
  [[nodiscard]] static Cursor seek(const ColumnarView& view,
                                   std::size_t record_index) noexcept;

  /// Streaming decoder. next() materializes one record at a time into
  /// internal storage — no allocation, the references stay valid until the
  /// following next().
  class Cursor {
   public:
    Cursor() = default;

    /// Decodes the next record; false once the range is exhausted (the
    /// cursor then stays exhausted).
    bool next() noexcept;

    [[nodiscard]] const FlowRecord& record() const noexcept { return record_; }
    [[nodiscard]] Direction direction() const noexcept { return direction_; }
    /// Index (into the whole store) of the record `record()` holds.
    [[nodiscard]] std::size_t index() const noexcept { return next_index_ - 1; }

    /// Rewinds onto `view` at its first record, decoding at most `limit`
    /// records. Every store's first run header is encoded relative to
    /// (0, 0), so this needs no checkpoint walk — it is how spill-tier
    /// cursors hop across segment views.
    void reset(const ColumnarView& view, std::size_t limit) noexcept {
      view_ = view;
      next_index_ = 0;
      limit_ = limit < view.records ? limit : view.records;
      run_ = static_cast<std::size_t>(-1);  // ++run_ in next() lands on 0
      run_end_ = 0;
      header_pos_ = 0;
      payload_pos_ = 0;
      key_ = 0;
      minute_ = 0;
      remote_ = 0;
    }

    /// Tightens the decode limit to at most `limit` (view-local index).
    void clip(std::size_t limit) noexcept {
      if (limit < limit_) limit_ = limit;
    }

   private:
    friend class ColumnarRecords;

    ColumnarView view_;
    std::size_t next_index_ = 0;  ///< record decoded by the next next()
    std::size_t limit_ = 0;       ///< one past the last record to decode
    std::size_t run_ = 0;         ///< run containing next_index_
    std::size_t run_end_ = 0;     ///< first record index past run_
    std::size_t header_pos_ = 0;  ///< headers_ offset of run_ + 1's header
    std::size_t payload_pos_ = 0;
    std::uint64_t key_ = 0;       ///< (vip << 1) | direction of run_
    std::uint64_t minute_ = 0;    ///< run_'s minute, wraparound u64
    std::uint32_t remote_ = 0;
    FlowRecord record_;
    Direction direction_ = Direction::kInbound;
  };

  /// Iterable decoded view; `for (const FlowRecord& r : range)` drops in
  /// where a std::span<const FlowRecord> used to be. The iterator is a
  /// single-pass input iterator (each begin() starts a fresh pass).
  class Range {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = FlowRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowRecord*;
      using reference = const FlowRecord&;

      iterator() = default;

      [[nodiscard]] reference operator*() const noexcept {
        return cursor_.record();
      }
      [[nodiscard]] pointer operator->() const noexcept {
        return &cursor_.record();
      }
      /// Orientation of the current record — the datum a parallel
      /// std::vector<Direction> used to carry.
      [[nodiscard]] Direction direction() const noexcept {
        return cursor_.direction();
      }
      [[nodiscard]] std::size_t index() const noexcept {
        return cursor_.index();
      }

      iterator& operator++() {
        at_end_ = !cursor_.next();
        return *this;
      }
      iterator operator++(int) {
        iterator copy = *this;
        ++*this;
        return copy;
      }

      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        if (a.at_end_ || b.at_end_) return a.at_end_ == b.at_end_;
        return a.cursor_.index() == b.cursor_.index();
      }

     private:
      friend class Range;
      explicit iterator(const Cursor& cursor) : cursor_(cursor) {
        at_end_ = !cursor_.next();
      }

      Cursor cursor_;
      bool at_end_ = true;
    };

    Range() = default;

    [[nodiscard]] iterator begin() const noexcept { return iterator(first_); }
    [[nodiscard]] iterator end() const noexcept { return iterator(); }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

   private:
    friend class ColumnarRecords;
    Range(const Cursor& first, std::size_t size) : first_(first), size_(size) {}

    Cursor first_;  ///< unprimed cursor at the range start
    std::size_t size_ = 0;
  };

 private:
  /// Checkpoint spacing: bounds both the seek's header-decode walk and the
  /// index overhead (32 bytes per 64 runs ≈ half a byte per run).
  static constexpr std::size_t kCheckpointRuns = 64;

  using Checkpoint = ColumnarCheckpoint;

  void begin_run(std::uint64_t key, std::uint64_t minute);

  std::vector<std::uint8_t> headers_;
  std::vector<std::uint8_t> payload_;
  std::vector<std::uint32_t> run_starts_;
  std::vector<std::uint64_t> payload_offs_;
  std::vector<Checkpoint> checkpoints_;
  std::size_t size_ = 0;
  // Encoder state: the previous run's key/minute and previous record's
  // remote, so push_back writes deltas without re-decoding.
  std::uint64_t last_key_ = 0;
  std::uint64_t last_minute_ = 0;
  std::uint32_t last_remote_ = 0;
};

inline bool ColumnarRecords::Cursor::next() noexcept {
  if (next_index_ >= limit_) return false;
  if (next_index_ >= run_end_) {
    ++run_;
    const std::uint8_t* h = view_.headers + header_pos_;
    key_ = undelta64(key_, get_varint(h));
    minute_ = undelta64(minute_, get_varint(h));
    header_pos_ = static_cast<std::size_t>(h - view_.headers);
    run_end_ = run_ + 1 < view_.runs ? view_.run_starts[run_ + 1]
                                     : view_.records;
  }
  const std::uint8_t* p = view_.payload + payload_pos_;
  if (next_index_ == view_.run_starts[run_]) {
    remote_ = static_cast<std::uint32_t>(get_varint(p));
  } else {
    remote_ = undelta32(remote_, static_cast<std::uint32_t>(get_varint(p)));
  }
  direction_ = static_cast<Direction>(key_ & 1);
  const IPv4 vip(static_cast<std::uint32_t>(key_ >> 1));
  record_.minute = static_cast<util::Minute>(minute_);
  if (direction_ == Direction::kInbound) {
    record_.src_ip = IPv4(remote_);
    record_.dst_ip = vip;
  } else {
    record_.src_ip = vip;
    record_.dst_ip = IPv4(remote_);
  }
  record_.src_port = static_cast<std::uint16_t>(get_varint(p));
  record_.dst_port = static_cast<std::uint16_t>(get_varint(p));
  record_.protocol = static_cast<Protocol>(get_varint(p));
  record_.tcp_flags = static_cast<TcpFlags>(get_varint(p));
  record_.packets = static_cast<std::uint32_t>(get_varint(p));
  record_.bytes = get_varint(p);
  payload_pos_ = static_cast<std::size_t>(p - view_.payload);
  ++next_index_;
  return true;
}

}  // namespace dm::netflow
