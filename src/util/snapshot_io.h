#ifndef OMNIFAIR_UTIL_SNAPSHOT_IO_H_
#define OMNIFAIR_UTIL_SNAPSHOT_IO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// Durable binary snapshots (DESIGN.md §12).
//
// Two layers:
//   1. BinaryWriter / BinaryReader — a little-endian byte codec for
//      primitives, strings and double vectors. Doubles round-trip bit-exact
//      (raw IEEE-754 bits), which is what makes checkpoint resume
//      bit-identical. The reader is bounds-checked everywhere: any read past
//      the end fails with a typed kDataLoss status naming the byte offset,
//      never UB.
//   2. WriteSnapshotFile / ReadSnapshotFile — a versioned file container:
//      magic/version/flags header, length-prefixed named sections, CRC32
//      trailer over everything before it. Writes are crash-safe
//      (temp file → fsync → atomic rename) and wrapped in a bounded
//      retry-with-exponential-backoff for transient errnos; reads validate
//      magic, version and CRC before any section is parsed.
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes,
/// seedable for incremental use: pass the previous return value as `crc`.
/// On x86 CPUs with PCLMULQDQ the bulk of the input folds by carry-less
/// multiplication, the tail under 16 bytes by the slice-by-8 tables; other
/// CPUs run the tables throughout. Both return the same values.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t crc = 0);

namespace internal_crc {
/// The slice-by-8 table CRC alone, whatever the CPU: the reference the
/// folded path is tested against.
uint32_t Crc32Table(const uint8_t* data, size_t size, uint32_t crc = 0);
}  // namespace internal_crc

/// Appends primitives to a growable little-endian byte buffer.
class BinaryWriter {
 public:
  /// Pre-sizes the buffer for `bytes` more data; avoids growth copies when
  /// the payload size is known up front (e.g. multi-MB dataset blocks).
  void Reserve(size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }
  void U8(uint8_t value) { buffer_.push_back(value); }
  void U32(uint32_t value);
  void U64(uint64_t value);
  void I32(int32_t value) { U32(static_cast<uint32_t>(value)); }
  void I64(int64_t value) { U64(static_cast<uint64_t>(value)); }
  /// Raw IEEE-754 bits; bit-exact round trip.
  void F64(double value);
  /// u32 byte length + UTF-8 bytes.
  void String(const std::string& value);
  /// u64 element count + raw doubles.
  void F64Vector(const std::vector<double>& values);
  /// u64 byte length + raw bytes.
  void Bytes(const std::vector<uint8_t>& bytes);
  void RawBytes(const uint8_t* data, size_t size);

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounds-checked reader over a byte span. Every accessor returns false once
/// the span is exhausted or a length prefix is implausible, and status()
/// carries a kDataLoss diagnosis with the failing byte offset; after the
/// first failure all further reads fail fast.
class BinaryReader {
 public:
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  bool U8(uint8_t* value);
  bool U32(uint32_t* value);
  bool U64(uint64_t* value);
  bool I32(int32_t* value);
  bool I64(int64_t* value);
  bool F64(double* value);
  bool String(std::string* value);
  bool F64Vector(std::vector<double>* values);
  bool Bytes(std::vector<uint8_t>* bytes);

  size_t offset() const { return offset_; }
  size_t remaining() const { return size_ - offset_; }
  bool exhausted() const { return offset_ >= size_; }
  /// kOk until a read failed; then kDataLoss with the failing offset.
  const Status& status() const { return status_; }

 private:
  bool Take(size_t count, const uint8_t** out);
  bool Fail(const std::string& what);

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  Status status_;
};

/// One named, length-prefixed payload inside a snapshot file.
struct SnapshotSection {
  std::string name;
  std::vector<uint8_t> payload;
};

/// Parsed snapshot container.
struct Snapshot {
  uint32_t version = 0;
  uint32_t flags = 0;
  std::vector<SnapshotSection> sections;

  /// First section with `name`, or nullptr.
  const SnapshotSection* Find(const std::string& name) const;
};

/// Bounded retry with exponential backoff for transient IO. `op` is retried
/// while it returns kUnavailable, up to `max_attempts` total attempts with
/// initial_backoff_ms doubling between them; any other status (including OK)
/// is returned immediately.
struct RetryOptions {
  int max_attempts = 4;
  double initial_backoff_ms = 2.0;
};
Status RetryIo(const RetryOptions& options, const std::function<Status()>& op);

/// write(2) loop writing all `size` bytes to `fd`. The `io.enospc` fault site
/// forces ENOSPC (kDataLoss — permanent); `io.short_write` forces one short
/// write reported as EINTR (kUnavailable — transient, so callers wrapping the
/// write in RetryIo recover). Shared by the snapshot writer and the chunked
/// dataset spill path.
Status WriteFd(int fd, const std::string& path, const uint8_t* data,
               size_t size);

/// pread(2) loop reading exactly `size` bytes at `offset`. Retries EINTR and
/// short reads (the `io.short_read` fault site truncates one call to half the
/// requested bytes, which this loop must absorb); EOF before `size` bytes
/// yields kDataLoss naming the offset.
Status PreadFull(int fd, const std::string& path, uint64_t offset,
                 uint8_t* out, size_t size);

/// Writes `size` bytes durably and atomically to `path`: temp file in the
/// same directory, fsync, atomic rename — so a crash can never expose a
/// partially written or unsynced file at the final path. Transient write
/// errors are retried per `retry`; the `io.short_write` / `io.enospc`
/// fault sites apply.
Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size, const RetryOptions& retry = {});

/// Serializes `snapshot` (version/flags/sections + CRC32 trailer) and writes
/// it durably to `path`: temp file in the same directory, fsync, atomic
/// rename. Transient write errors are retried per `retry`. Fault sites:
/// `io.short_write` forces one simulated EINTR short write (exercises the
/// retry loop), `io.enospc` forces ENOSPC (typed kDataLoss after retries
/// are exhausted — ENOSPC is not transient).
Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot,
                         const RetryOptions& retry = {});

/// Reads and validates a snapshot written by WriteSnapshotFile. Truncated,
/// bit-flipped (CRC mismatch) or foreign files yield typed statuses
/// (kDataLoss / kInvalidArgument), never UB. `max_version` rejects files
/// written by a newer codec. The `io.corrupt_read` fault site flips one
/// payload byte after the read to exercise the CRC guard.
Result<Snapshot> ReadSnapshotFile(const std::string& path, uint32_t max_version);

}  // namespace omnifair

#endif  // OMNIFAIR_UTIL_SNAPSHOT_IO_H_
