#include "util/snapshot_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

// The carry-less-multiply CRC fold sits behind the same arch define and
// function-multiversioning scheme as the linalg kernels (linalg/simd.cc): no
// global -mpclmul, baseline code everywhere else, CPU checked at runtime.
#if defined(OMNIFAIR_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
#define OMNIFAIR_HAVE_CRC_PCLMUL 1
#include <immintrin.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/fault_injector.h"
#include "util/logging.h"

namespace omnifair {
namespace {

/// "OFSN" little-endian: the first four bytes of every snapshot file.
constexpr uint32_t kMagic = 0x4E53464Fu;
/// Header: magic, version, flags, section count (4 x u32).
constexpr size_t kHeaderBytes = 16;
/// CRC32 trailer.
constexpr size_t kTrailerBytes = 4;

/// Slice-by-8 CRC tables: table[0] is the classic Sarwate table; table[j]
/// advances a byte through j additional zero bytes, so eight bytes fold in
/// one step. Identical CRC values to the byte-at-a-time loop, ~6x faster on
/// multi-megabyte model bundles (the whole image is checksummed on load).
const uint32_t (*Crc32Tables())[256] {
  static const auto* tables = [] {
    auto* t = new uint32_t[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = t[0][i];
      for (int j = 1; j < 8; ++j) {
        c = t[0][c & 0xFFu] ^ (c >> 8);
        t[j][i] = c;
      }
    }
    return t;
  }();
  return tables;
}

#if OMNIFAIR_HAVE_CRC_PCLMUL
#define OMNIFAIR_PCLMUL __attribute__((target("pclmul")))

OMNIFAIR_PCLMUL inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries `x` forward by the distance the constant pair `k` encodes: its
/// low half times one constant, its high half times the other.
OMNIFAIR_PCLMUL inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the CRC register
/// `crc` (pre-inverted, as in the table loop) with PCLMULQDQ: four 128-bit
/// lanes fold 64 bytes per step, then fold into one lane, then a Barrett
/// reduction to 32 bits. The constants are x^k mod P for the bit-reflected
/// polynomial, from Intel's "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction" (2009), as in Linux's crc32-pclmul.
OMNIFAIR_PCLMUL uint32_t Crc32FoldPclmul(const uint8_t* data, size_t size,
                                         uint32_t crc) {
  // Fold distances: 512 bits (k1, k2), 128 bits (k3, k4), 64 -> 32 bits
  // (k5); then the Barrett pair P' and mu.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  __m128i x1 =
      _mm_xor_si128(Load128(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(data + 16);
  __m128i x3 = Load128(data + 32);
  __m128i x4 = Load128(data + 48);
  data += 64;
  size -= 64;
  for (; size >= 64; data += 64, size -= 64) {
    x1 = _mm_xor_si128(Fold(x1, k1k2), Load128(data));
    x2 = _mm_xor_si128(Fold(x2, k1k2), Load128(data + 16));
    x3 = _mm_xor_si128(Fold(x3, k1k2), Load128(data + 32));
    x4 = _mm_xor_si128(Fold(x4, k1k2), Load128(data + 48));
  }
  x1 = _mm_xor_si128(Fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(Fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(Fold(x1, k3k4), x4);
  for (; size >= 16; data += 16, size -= 16) {
    x1 = _mm_xor_si128(Fold(x1, k3k4), Load128(data));
  }
  // 128 -> 64 bits (also appends the 32 zero bits the CRC definition needs).
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  // Barrett reduction: the remainder lands in the second 32-bit lane.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

bool HavePclmul() {
  static const bool have = __builtin_cpu_supports("pclmul");
  return have;
}
#endif

/// The slice-by-8 loop over the CRC register (already inverted).
uint32_t Crc32TableRegister(const uint8_t* data, size_t size, uint32_t crc) {
  const uint32_t(*t)[256] = Crc32Tables();
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  while (size >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= crc;  // little-endian fold; the wire format is LE throughout
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

namespace internal_crc {

uint32_t Crc32Table(const uint8_t* data, size_t size, uint32_t crc) {
  return ~Crc32TableRegister(data, size, ~crc);
}

}  // namespace internal_crc

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t crc) {
  crc = ~crc;
#if OMNIFAIR_HAVE_CRC_PCLMUL
  if (size >= 64 && HavePclmul()) {
    const size_t bulk = size & ~size_t{15};
    crc = Crc32FoldPclmul(data, bulk, crc);
    data += bulk;
    size -= bulk;
  }
#endif
  return ~Crc32TableRegister(data, size, crc);
}

// --- BinaryWriter -----------------------------------------------------------

void BinaryWriter::U32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void BinaryWriter::U64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void BinaryWriter::F64(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void BinaryWriter::String(const std::string& value) {
  U32(static_cast<uint32_t>(value.size()));
  RawBytes(reinterpret_cast<const uint8_t*>(value.data()), value.size());
}

void BinaryWriter::F64Vector(const std::vector<double>& values) {
  U64(values.size());
  for (double v : values) F64(v);
}

void BinaryWriter::Bytes(const std::vector<uint8_t>& bytes) {
  U64(bytes.size());
  RawBytes(bytes.data(), bytes.size());
}

void BinaryWriter::RawBytes(const uint8_t* data, size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

// --- BinaryReader -----------------------------------------------------------

bool BinaryReader::Fail(const std::string& what) {
  if (status_.ok()) {
    status_ = Status::DataLoss("truncated snapshot: " + what + " at byte " +
                               std::to_string(offset_) + " of " +
                               std::to_string(size_));
  }
  return false;
}

bool BinaryReader::Take(size_t count, const uint8_t** out) {
  if (!status_.ok()) return false;
  if (count > size_ - offset_) return false;
  *out = data_ + offset_;
  offset_ += count;
  return true;
}

bool BinaryReader::U8(uint8_t* value) {
  const uint8_t* p = nullptr;
  if (!Take(1, &p)) return Fail("u8");
  *value = *p;
  return true;
}

bool BinaryReader::U32(uint32_t* value) {
  const uint8_t* p = nullptr;
  if (!Take(4, &p)) return Fail("u32");
  *value = 0;
  for (int i = 0; i < 4; ++i) *value |= static_cast<uint32_t>(p[i]) << (8 * i);
  return true;
}

bool BinaryReader::U64(uint64_t* value) {
  const uint8_t* p = nullptr;
  if (!Take(8, &p)) return Fail("u64");
  *value = 0;
  for (int i = 0; i < 8; ++i) *value |= static_cast<uint64_t>(p[i]) << (8 * i);
  return true;
}

bool BinaryReader::I32(int32_t* value) {
  uint32_t bits = 0;
  if (!U32(&bits)) return false;
  *value = static_cast<int32_t>(bits);
  return true;
}

bool BinaryReader::I64(int64_t* value) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  *value = static_cast<int64_t>(bits);
  return true;
}

bool BinaryReader::F64(double* value) {
  uint64_t bits = 0;
  if (!U64(&bits)) return false;
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

bool BinaryReader::String(std::string* value) {
  uint32_t length = 0;
  if (!U32(&length)) return false;
  // A length prefix larger than the bytes left is corruption, not an
  // allocation request.
  if (length > remaining()) return Fail("string of " + std::to_string(length));
  const uint8_t* p = nullptr;
  if (!Take(length, &p)) return Fail("string bytes");
  value->assign(reinterpret_cast<const char*>(p), length);
  return true;
}

bool BinaryReader::F64Vector(std::vector<double>* values) {
  uint64_t count = 0;
  if (!U64(&count)) return false;
  if (count > remaining() / 8) return Fail("f64[" + std::to_string(count) + "]");
  values->resize(static_cast<size_t>(count));
  for (double& v : *values) {
    if (!F64(&v)) return false;
  }
  return true;
}

bool BinaryReader::Bytes(std::vector<uint8_t>* bytes) {
  uint64_t length = 0;
  if (!U64(&length)) return false;
  if (length > remaining()) return Fail("bytes of " + std::to_string(length));
  const uint8_t* p = nullptr;
  if (!Take(static_cast<size_t>(length), &p)) return Fail("byte payload");
  bytes->assign(p, p + length);
  return true;
}

// --- Snapshot container -----------------------------------------------------

const SnapshotSection* Snapshot::Find(const std::string& name) const {
  for (const SnapshotSection& section : sections) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

Status RetryIo(const RetryOptions& options, const std::function<Status()>& op) {
  const int attempts = options.max_attempts > 0 ? options.max_attempts : 1;
  double backoff_ms = options.initial_backoff_ms;
  Status status;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    status = op();
    if (status.code() != StatusCode::kUnavailable) return status;
    if (attempt == attempts) break;
    OF_LOG(Warning) << "transient IO error (attempt " << attempt << "/"
                    << attempts << "): " << status.message() << "; backing off "
                    << backoff_ms << "ms";
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
    backoff_ms *= 2.0;
  }
  return status;
}

Status WriteFd(int fd, const std::string& path, const uint8_t* data,
               size_t size) {
  size_t written = 0;
  while (written < size) {
    if (FaultInjector::ShouldFail(fault_sites::kIoEnospc)) {
      return IoError(path, "write", ENOSPC);
    }
    size_t chunk = size - written;
    bool injected_short = false;
    if (FaultInjector::ShouldFail(fault_sites::kIoShortWrite)) {
      chunk = chunk / 2;
      injected_short = true;
      if (chunk == 0) return IoError(path, "write", EINTR);
    }
    const ssize_t n = ::write(fd, data + written, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(path, "write");
    }
    written += static_cast<size_t>(n);
    if (injected_short) return IoError(path, "write", EINTR);
  }
  return Status::Ok();
}

Status PreadFull(int fd, const std::string& path, uint64_t offset,
                 uint8_t* out, size_t size) {
  size_t done = 0;
  while (done < size) {
    size_t want = size - done;
    if (FaultInjector::ShouldFail(fault_sites::kIoShortRead) && want > 1) {
      want = want / 2;  // one truncated read; the loop must pick up the rest
    }
    const ssize_t n = ::pread(fd, out + done, want,
                              static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(path, "pread");
    }
    if (n == 0) {
      return Status::DataLoss("short read of " + path + ": wanted " +
                              std::to_string(size) + " bytes at offset " +
                              std::to_string(offset) + ", file ended after " +
                              std::to_string(done));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

std::vector<uint8_t> SerializeSnapshot(const Snapshot& snapshot) {
  BinaryWriter writer;
  writer.U32(kMagic);
  writer.U32(snapshot.version);
  writer.U32(snapshot.flags);
  writer.U32(static_cast<uint32_t>(snapshot.sections.size()));
  for (const SnapshotSection& section : snapshot.sections) {
    writer.String(section.name);
    writer.Bytes(section.payload);
  }
  std::vector<uint8_t> bytes = writer.TakeBuffer();
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<uint8_t>(crc >> shift));
  }
  return bytes;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const uint8_t* data,
                       size_t size, const RetryOptions& retry) {
  const std::string temp_path = path + ".tmp";
  return RetryIo(retry, [&]() -> Status {
    const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return IoError(temp_path, "open");
    Status write_status = WriteFd(fd, temp_path, data, size);
    if (write_status.ok() && ::fsync(fd) != 0) {
      write_status = IoError(temp_path, "fsync");
    }
    if (::close(fd) != 0 && write_status.ok()) {
      write_status = IoError(temp_path, "close");
    }
    if (!write_status.ok()) {
      ::unlink(temp_path.c_str());
      return write_status;
    }
    if (::rename(temp_path.c_str(), path.c_str()) != 0) {
      Status rename_status = IoError(path, "rename");
      ::unlink(temp_path.c_str());
      return rename_status;
    }
    return Status::Ok();
  });
}

Status WriteSnapshotFile(const std::string& path, const Snapshot& snapshot,
                         const RetryOptions& retry) {
  const std::vector<uint8_t> bytes = SerializeSnapshot(snapshot);
  return WriteFileAtomic(path, bytes.data(), bytes.size(), retry);
}

Result<Snapshot> ReadSnapshotFile(const std::string& path, uint32_t max_version) {
  std::vector<uint8_t> bytes;
  {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return IoError(path, "open");
    // Size the buffer once from fstat and read in place: the 64 KiB
    // insert-append loop this replaces reallocated (and re-copied) the whole
    // buffer O(n/64KiB) times on multi-megabyte bundles.
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      const Status status = IoError(path, "fstat");
      ::close(fd);
      return status;
    }
    bytes.resize(st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0);
    size_t filled = 0;
    for (;;) {
      if (filled == bytes.size()) {
        // At the expected size: probe for EOF, growing only if the file
        // gained bytes after the fstat (append race — rare but legal).
        uint8_t probe = 0;
        const ssize_t n = ::read(fd, &probe, 1);
        if (n < 0) {
          if (errno == EINTR) continue;
          const Status status = IoError(path, "read");
          ::close(fd);
          return status;
        }
        if (n == 0) break;
        bytes.push_back(probe);
        ++filled;
        continue;
      }
      const ssize_t n = ::read(fd, bytes.data() + filled, bytes.size() - filled);
      if (n < 0) {
        if (errno == EINTR) continue;
        const Status status = IoError(path, "read");
        ::close(fd);
        return status;
      }
      if (n == 0) {
        bytes.resize(filled);  // file shrank after the fstat
        break;
      }
      filled += static_cast<size_t>(n);
    }
    ::close(fd);
  }
  if (FaultInjector::ShouldFail(fault_sites::kIoCorruptRead) && !bytes.empty()) {
    bytes[bytes.size() * 2 / 3] ^= 0x40;  // simulated bit flip
  }

  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return Status::DataLoss("snapshot " + path + " is " +
                            std::to_string(bytes.size()) +
                            " bytes; too short for header + CRC trailer");
  }
  const size_t body = bytes.size() - kTrailerBytes;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(bytes[body + i]) << (8 * i);
  }
  const uint32_t actual_crc = Crc32(bytes.data(), body);

  BinaryReader reader(bytes.data(), body);
  uint32_t magic = 0;
  Snapshot snapshot;
  uint32_t section_count = 0;
  if (!reader.U32(&magic) || !reader.U32(&snapshot.version) ||
      !reader.U32(&snapshot.flags) || !reader.U32(&section_count)) {
    return reader.status();
  }
  if (magic != kMagic) {
    return Status::InvalidArgument("not an omnifair snapshot: " + path +
                                   " (bad magic)");
  }
  if (snapshot.version > max_version) {
    return Status::InvalidArgument(
        "snapshot " + path + " has version " +
        std::to_string(snapshot.version) + "; this build reads up to " +
        std::to_string(max_version));
  }
  if (actual_crc != stored_crc) {
    return Status::DataLoss("snapshot " + path +
                            " failed CRC32 validation (corrupt or truncated)");
  }
  snapshot.sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    SnapshotSection section;
    if (!reader.String(&section.name) || !reader.Bytes(&section.payload)) {
      return reader.status();
    }
    snapshot.sections.push_back(std::move(section));
  }
  return snapshot;
}

}  // namespace omnifair
