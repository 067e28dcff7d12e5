#include "data/stream_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

// The fused record splitter has an AVX2 backend behind the same arch define
// + function-multiversioning scheme as the linalg kernels (linalg/simd.cc):
// no global -mavx2, baseline code everywhere else, CPU checked at runtime.
#if defined(OMNIFAIR_SIMD_X86) && (defined(__GNUC__) || defined(__clang__))
#define OMNIFAIR_HAVE_SPLIT_AVX2 1
#include <immintrin.h>
#endif

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "data/chunked_dataset.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "linalg/simd.h"
#include "util/status.h"
#include "util/string_utils.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace omnifair {

// --- CsvRecordScanner -------------------------------------------------------

void CsvRecordScanner::Feed(std::string_view chunk, const RecordFn& on_record) {
  auto emit = [&](std::string_view record) {
    // CRLF: the '\r' may have arrived in a previous chunk (it sits at the
    // end of carry_), so trim it from the assembled record, not the chunk.
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    on_record(record, record_offset_);
  };
  // memchr-driven scan: hop between the only two bytes that matter for
  // boundary detection ('\n' and '"') instead of branching on every
  // character. Toggling on every quote also handles the "" escape (two
  // toggles net to no change), which is all boundary detection needs.
  size_t start = 0;
  size_t i = 0;
  while (i < chunk.size()) {
    if (in_quotes_) {
      const void* quote = std::memchr(chunk.data() + i, '"', chunk.size() - i);
      if (quote == nullptr) {
        i = chunk.size();
        break;
      }
      i = static_cast<size_t>(static_cast<const char*>(quote) - chunk.data()) + 1;
      in_quotes_ = false;
      continue;
    }
    const char* base = chunk.data() + i;
    const size_t remaining = chunk.size() - i;
    const char* newline =
        static_cast<const char*>(std::memchr(base, '\n', remaining));
    const size_t before_newline =
        newline != nullptr ? static_cast<size_t>(newline - base) : remaining;
    const char* quote =
        static_cast<const char*>(std::memchr(base, '"', before_newline));
    if (quote != nullptr) {
      in_quotes_ = true;
      i = static_cast<size_t>(quote - chunk.data()) + 1;
      continue;
    }
    if (newline == nullptr) {
      i = chunk.size();
      break;
    }
    const size_t nl = static_cast<size_t>(newline - chunk.data());
    const std::string_view rest = chunk.substr(start, nl - start);
    if (carry_.empty()) {
      emit(rest);
    } else {
      carry_.append(rest.data(), rest.size());
      emit(carry_);
      carry_.clear();
    }
    record_offset_ = consumed_ + nl + 1;
    start = nl + 1;
    i = nl + 1;
  }
  if (start < chunk.size()) {
    carry_.append(chunk.data() + start, chunk.size() - start);
  }
  consumed_ += chunk.size();
}

void CsvRecordScanner::Finish(const RecordFn& on_record) {
  if (!carry_.empty()) {
    std::string_view record = carry_;
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    on_record(record, record_offset_);
    carry_.clear();
  }
  record_offset_ = consumed_;
  in_quotes_ = false;
}

// --- Streaming ingest -------------------------------------------------------

namespace {

/// "path: record N (byte B):" — streaming errors are seekable, matching the
/// byte-offset contract of ReadCsv (data/csv.h).
std::string StreamErrorAt(const std::string& path, uint64_t record_number,
                          uint64_t byte_offset) {
  std::ostringstream prefix;
  prefix << path << ": record " << record_number << " (byte " << byte_offset
         << "):";
  return prefix.str();
}

/// Raw text of one pending block: records are copied out of the transient
/// read chunk into an arena so parsing can run after (and concurrently with
/// the read loop's reuse of) the chunk buffer.
struct RawBlock {
  std::string arena;
  std::vector<std::pair<size_t, size_t>> spans;  // (offset, length) in arena
  std::vector<uint64_t> offsets;                 // absolute byte offsets
  std::vector<uint64_t> numbers;                 // 1-based record numbers

  size_t rows() const { return spans.size(); }
  void Clear() {
    arena.clear();
    spans.clear();
    offsets.clear();
    numbers.clear();
  }
};

/// Transparent hasher so categorical dictionary lookups can take the raw
/// cell string_view without materializing a std::string per cell.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// Fitted per-column model driving block parsing.
struct ColumnModel {
  std::string name;
  bool categorical = false;
  std::vector<std::string> categories;  // without the unseen sentinel
  std::unordered_map<std::string, int, TransparentStringHash, std::equal_to<>>
      code_of;

  /// Code for `cell`, or the unseen sentinel (== categories.size()). Tiny
  /// dictionaries — the common case for sensitive attributes — beat the
  /// hash with a direct scan.
  int CodeOf(std::string_view cell) const {
    if (categories.size() <= 4) {
      for (size_t i = 0; i < categories.size(); ++i) {
        if (categories[i] == cell) return static_cast<int>(i);
      }
      return static_cast<int>(categories.size());
    }
    const auto it = code_of.find(cell);
    return it != code_of.end() ? it->second
                               : static_cast<int>(categories.size());
  }
};

/// Decimal-integer fast path for numeric cells. Exact for up to 15 digits
/// (well inside double's 2^53 integer range), so the result is bit-identical
/// to from_chars. Returns false for anything else; callers fall back to
/// ParseDouble.
bool ParseSmallInt(std::string_view cell, double* out) {
  size_t i = 0;
  bool negative = false;
  if (!cell.empty() && cell[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i == cell.size() || cell.size() - i > 15) return false;
  uint64_t magnitude = 0;
  for (; i < cell.size(); ++i) {
    const unsigned digit = static_cast<unsigned>(cell[i]) - '0';
    if (digit > 9) return false;
    magnitude = magnitude * 10 + digit;
  }
  *out = negative ? -static_cast<double>(magnitude)
                  : static_cast<double>(magnitude);
  return true;
}

/// Precomputed per-CSV-column encode step mirroring the fitted encoder's
/// plans: where the column's values land in the packed block streams
/// (numeric floats, categorical u16 codes) and how they get there. Lets
/// blocks encode straight from raw cells — bit-identical after densify to
/// FeatureEncoder::Transform — with no intermediate Dataset or dense matrix.
struct ColumnEncode {
  bool in_features = false;  // false: dropped column (values still validated)
  size_t compact = 0;        // slot in the packed per-row float/code stream
  bool standardize = false;
  double mean = 0.0;
  double stddev = 1.0;
};

/// Outcome of the fused single-pass record split.
enum class SplitOutcome {
  kOk,        ///< exactly ncols quote-free cells filled
  kQuote,     ///< a '"' was seen: caller must use the full CSV splitter
  kBadCount,  ///< field count mismatch (may hide quotes past the overflow
              ///< point, so callers re-split with the full CSV splitter)
};

/// Scalar fused split: one quote scan, then one delimiter walk.
SplitOutcome SplitRecordScalar(std::string_view record, char delimiter,
                               size_t ncols, std::string_view* cells) {
  if (record.find('"') != std::string_view::npos) return SplitOutcome::kQuote;
  size_t pos = 0;
  for (size_t c = 0; c + 1 < ncols; ++c) {
    const size_t next = record.find(delimiter, pos);
    if (next == std::string_view::npos) return SplitOutcome::kBadCount;
    cells[c] = record.substr(pos, next - pos);
    pos = next + 1;
  }
  if (record.find(delimiter, pos) != std::string_view::npos) {
    return SplitOutcome::kBadCount;
  }
  cells[ncols - 1] = record.substr(pos);
  return SplitOutcome::kOk;
}

#if defined(OMNIFAIR_HAVE_SPLIT_AVX2)
/// AVX2 fused split: compares 32 record bytes at a time against both the
/// delimiter and '"', then peels delimiter positions off the movemask. One
/// pass replaces the per-field memchr calls of the scalar path — on short
/// CSV fields the call overhead dominates the scan, which is what makes
/// this worth vectorizing.
__attribute__((target("avx2"))) SplitOutcome SplitRecordAvx2(
    std::string_view record, char delimiter, size_t ncols,
    std::string_view* cells) {
  const char* data = record.data();
  const size_t size = record.size();
  const __m256i vdelim = _mm256_set1_epi8(delimiter);
  const __m256i vquote = _mm256_set1_epi8('"');
  size_t cell = 0;
  size_t start = 0;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    const __m256i bytes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    if (_mm256_movemask_epi8(_mm256_cmpeq_epi8(bytes, vquote)) != 0) {
      return SplitOutcome::kQuote;
    }
    uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(bytes, vdelim)));
    while (mask != 0) {
      const size_t pos = i + static_cast<size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      if (cell + 1 >= ncols) return SplitOutcome::kBadCount;
      cells[cell++] = std::string_view(data + start, pos - start);
      start = pos + 1;
    }
  }
  for (; i < size; ++i) {
    const char ch = data[i];
    if (ch == '"') return SplitOutcome::kQuote;
    if (ch == delimiter) {
      if (cell + 1 >= ncols) return SplitOutcome::kBadCount;
      cells[cell++] = std::string_view(data + start, i - start);
      start = i + 1;
    }
  }
  if (cell + 1 != ncols) return SplitOutcome::kBadCount;
  cells[cell] = std::string_view(data + start, size - start);
  return SplitOutcome::kOk;
}
#endif  // OMNIFAIR_HAVE_SPLIT_AVX2

using SplitRecordFn = SplitOutcome (*)(std::string_view, char, size_t,
                                       std::string_view*);

/// The record splitter of a SIMD backend: it splits a record into exactly
/// `ncols` quote-free cell views pointing into the record. Both splitters
/// produce identical cells and outcomes. Following the kernel backend lets
/// OMNIFAIR_SIMD=off and simd::SetActiveBackend reach the splitter too.
SplitRecordFn SplitRecordFor(simd::Backend backend) {
#if defined(OMNIFAIR_HAVE_SPLIT_AVX2)
  if (backend == simd::Backend::kAvx2) return SplitRecordAvx2;
#endif
  (void)backend;
  return SplitRecordScalar;
}

/// Zero-copy record scan over a fully-mapped file: identical boundary
/// semantics to CsvRecordScanner (quoted newlines, CRLF, missing trailing
/// newline) but the emitted views point into the mapping, so records are
/// never copied into a carry buffer. Returns false when the file ends inside
/// an open quote (malformed; the dangling tail is not emitted and
/// *dangling_offset is set to its absolute byte offset).
bool ScanMapped(std::string_view file,
                const CsvRecordScanner::RecordFn& on_record,
                size_t* dangling_offset) {
  auto emit = [&](size_t start, size_t end_pos) {
    std::string_view record = file.substr(start, end_pos - start);
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    on_record(record, start);
  };
  size_t start = 0;
  size_t i = 0;
  bool in_quotes = false;
  while (i < file.size()) {
    if (in_quotes) {
      const void* quote = std::memchr(file.data() + i, '"', file.size() - i);
      if (quote == nullptr) {
        *dangling_offset = start;
        return false;
      }
      i = static_cast<size_t>(static_cast<const char*>(quote) - file.data()) + 1;
      in_quotes = false;
      continue;
    }
    const char* base = file.data() + i;
    const size_t remaining = file.size() - i;
    const char* newline =
        static_cast<const char*>(std::memchr(base, '\n', remaining));
    const size_t before_newline =
        newline != nullptr ? static_cast<size_t>(newline - base) : remaining;
    const char* quote =
        static_cast<const char*>(std::memchr(base, '"', before_newline));
    if (quote != nullptr) {
      in_quotes = true;
      i = static_cast<size_t>(quote - file.data()) + 1;
      continue;
    }
    if (newline == nullptr) break;
    const size_t nl = static_cast<size_t>(newline - file.data());
    emit(start, nl);
    start = nl + 1;
    i = start;
  }
  if (start < file.size()) emit(start, file.size());
  return true;
}

/// Per-block parse output, row-indexed so parallel workers write disjoint
/// slots (bit-identical results at any thread count).
struct ParsedBlock {
  std::vector<std::vector<double>> numeric;  // [column][row]
  std::vector<std::vector<int>> codes;       // [column][row]
  std::vector<int> labels;
};

struct FirstError {
  std::mutex mu;
  bool set = false;
  uint64_t record_number = 0;
  Status status;

  /// Keeps the earliest record's error so the reported failure is
  /// deterministic regardless of worker interleaving.
  void Consider(uint64_t number, Status status_in) {
    std::lock_guard<std::mutex> lock(mu);
    if (!set || number < record_number) {
      set = true;
      record_number = number;
      status = std::move(status_in);
    }
  }
};

class StreamIngestor {
 public:
  StreamIngestor(const std::string& csv_path, const std::string& out_path,
                 const StreamIngestOptions& options)
      : csv_path_(csv_path),
        out_path_(out_path),
        options_(options),
        split_record_(SplitRecordFor(simd::ActiveBackend())) {
    options_.encoder.float32_features = true;  // chunked-format contract
    if (options_.block_rows == 0) options_.block_rows = 65536;
    if (options_.read_chunk_bytes == 0) options_.read_chunk_bytes = 1 << 20;
  }

  Result<IngestStats> Run() {
    const int fd = ::open(csv_path_.c_str(), O_RDONLY);
    if (fd < 0) return IoError(csv_path_, "open");
    Result<IngestStats> result = RunWithFd(fd);
    if (map_base_ != nullptr) {
      ::munmap(const_cast<char*>(map_base_), map_len_);
      map_base_ = nullptr;
    }
    ::close(fd);
    return result;
  }

 private:
  Result<IngestStats> RunWithFd(int fd) {
    struct stat st {};
    if (::fstat(fd, &st) != 0) return IoError(csv_path_, "fstat");
    Status status;
    auto on_record = [&](std::string_view record, uint64_t offset) {
      if (!status.ok()) return;
      status = OnRecord(record, offset);
    };
    bool unterminated = false;
    uint64_t dangling_offset = 0;  // offset of the record an EOF-open quote is in
    CsvRecordScanner scanner;
    // Zero-copy fast path: map the whole file and stream record views
    // straight out of the mapping — no read(2) copies, no per-record arena
    // append. The mapping is file-backed and sequential-advised, so the
    // kernel reclaims the pages behind the scan; the process's own
    // allocations stay bounded by one block either way.
    if (options_.use_mmap && st.st_size > 0) {
      void* mapped = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                            PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapped != MAP_FAILED) {
        map_base_ = static_cast<const char*>(mapped);
        map_len_ = static_cast<size_t>(st.st_size);
        ::madvise(mapped, map_len_, MADV_SEQUENTIAL);
        stats_.chunks = 1;
        stats_.bytes_read = map_len_;
        OF_COUNTER_INC("ingest.chunks");
        size_t dangling = 0;
        unterminated = !ScanMapped(std::string_view(map_base_, map_len_),
                                   on_record, &dangling);
        dangling_offset = dangling;
        if (!status.ok()) return status;
      }
    }
    if (map_base_ == nullptr) {
      // mmap unavailable (empty file, pipe, exotic filesystem): chunked
      // read(2) fallback with records carried across chunk boundaries.
      std::vector<char> chunk(options_.read_chunk_bytes);
      for (;;) {
        const ssize_t n = ::read(fd, chunk.data(), chunk.size());
        if (n < 0) {
          if (errno == EINTR) continue;
          return IoError(csv_path_, "read");
        }
        if (n == 0) break;
        stats_.chunks += 1;
        stats_.bytes_read += static_cast<uint64_t>(n);
        OF_COUNTER_INC("ingest.chunks");
        scanner.Feed(std::string_view(chunk.data(), static_cast<size_t>(n)),
                     on_record);
        if (!status.ok()) return status;
      }
      unterminated = scanner.in_quotes();
      dangling_offset = scanner.pending_offset();
    }
    if (unterminated) {
      // Blame the record the quote opened in (never emitted), not the last
      // complete record before it.
      const uint64_t dangling_number = saw_header_ ? record_number_ + 1 : 1;
      return Status::InvalidArgument(
          StreamErrorAt(csv_path_, dangling_number, dangling_offset) +
          " unterminated quoted field at end of file");
    }
    if (map_base_ == nullptr) scanner.Finish(on_record);
    if (!status.ok()) return status;
    if (!saw_header_) {
      return Status::InvalidArgument("empty CSV file " + csv_path_);
    }
    if (pending_.rows() > 0) {
      status = FlushBlock();
      if (!status.ok()) return status;
    }
    if (!writer_initialized_) {
      // Header-only file: fitting an encoder on zero rows is meaningless.
      return Status::InvalidArgument("CSV file " + csv_path_ +
                                     " has a header but no data rows");
    }
    status = writer_->Finalize(options_.label_column, options_.group_column,
                               group_names_, encoder_);
    if (!status.ok()) return status;
    stats_.num_features = encoder_.NumFeatures();
    stats_.parse_seconds = parse_seconds_;
    stats_.spill_seconds = spill_seconds_;
    return stats_;
  }

  Status OnRecord(std::string_view record, uint64_t offset) {
    if (!saw_header_) {
      saw_header_ = true;
      return ParseHeader(record);
    }
    ++record_number_;
    if (StripWhitespace(record).empty()) return Status::Ok();  // blank line
    if (map_base_ != nullptr) {
      // Zero-copy: the record view points into the file mapping, which
      // outlives the pending block — store the span, skip the copy.
      pending_.spans.emplace_back(
          static_cast<size_t>(record.data() - map_base_), record.size());
    } else {
      pending_.spans.emplace_back(pending_.arena.size(), record.size());
      pending_.arena.append(record.data(), record.size());
    }
    pending_.offsets.push_back(offset);
    pending_.numbers.push_back(record_number_);
    if (pending_.rows() >= options_.block_rows) return FlushBlock();
    return Status::Ok();
  }

  /// Raw text of pending record `r` — in the file mapping (zero-copy path)
  /// or the block arena (read fallback).
  std::string_view RecordAt(size_t r) const {
    const char* base = map_base_ != nullptr ? map_base_ : pending_.arena.data();
    return std::string_view(base + pending_.spans[r].first,
                            pending_.spans[r].second);
  }

  Status ParseHeader(std::string_view record) {
    std::vector<std::string> fields;
    if (!SplitCsvRecord(record, options_.delimiter, &fields)) {
      return Status::InvalidArgument(csv_path_ +
                                     ":1: (byte 0) unterminated quoted field");
    }
    for (std::string& name : fields) name = std::string(StripWhitespace(name));
    header_ = std::move(fields);
    label_index_ = -1;
    group_index_ = -1;
    for (size_t i = 0; i < header_.size(); ++i) {
      if (header_[i] == options_.label_column) label_index_ = static_cast<int>(i);
      if (header_[i] == options_.group_column) group_index_ = static_cast<int>(i);
    }
    if (label_index_ < 0) {
      return Status::InvalidArgument("label column '" + options_.label_column +
                                     "' not found in " + csv_path_);
    }
    if (options_.group_column.empty() || group_index_ < 0) {
      return Status::InvalidArgument("group column '" + options_.group_column +
                                     "' not found in " + csv_path_);
    }
    return Status::Ok();
  }

  /// First block: infer column types + categorical dictionaries from the
  /// buffered rows, then fit the encoder on the materialized block dataset.
  Status FitFromFirstBlock() {
    const size_t rows = pending_.rows();
    columns_.resize(header_.size());
    std::vector<std::string> fields;
    // Type inference needs a serial pass over the raw cells anyway (category
    // dictionaries are order-sensitive: first appearance wins), so the first
    // block pays one extra scan; every later block parses purely in parallel.
    std::vector<std::vector<std::string>> cells(header_.size());
    for (auto& cell_col : cells) cell_col.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      const std::string_view record = RecordAt(r);
      if (!SplitCsvRecord(StripWhitespace(record), options_.delimiter, &fields)) {
        return Status::InvalidArgument(
            StreamErrorAt(csv_path_, pending_.numbers[r], pending_.offsets[r]) +
            " unterminated quoted field");
      }
      if (fields.size() != header_.size()) {
        std::ostringstream msg;
        msg << StreamErrorAt(csv_path_, pending_.numbers[r], pending_.offsets[r])
            << " expected " << header_.size() << " fields, got " << fields.size();
        return Status::InvalidArgument(msg.str());
      }
      for (size_t c = 0; c < header_.size(); ++c) {
        cells[c][r] = std::string(StripWhitespace(fields[c]));
      }
    }
    for (size_t c = 0; c < header_.size(); ++c) {
      ColumnModel& model = columns_[c];
      model.name = header_[c];
      if (static_cast<int>(c) == label_index_) continue;
      bool forced = static_cast<int>(c) == group_index_;
      for (const std::string& name : options_.force_categorical) {
        if (name == header_[c]) forced = true;
      }
      bool numeric = !forced;
      if (numeric) {
        for (const std::string& cell : cells[c]) {
          double value = 0.0;
          if (!ParseDouble(cell, &value) || !std::isfinite(value)) {
            numeric = false;
            break;
          }
        }
      }
      model.categorical = !numeric;
      if (model.categorical) {
        for (const std::string& cell : cells[c]) {
          if (model.code_of.emplace(cell, static_cast<int>(model.categories.size()))
                  .second) {
            model.categories.push_back(cell);
          }
        }
      }
    }
    group_names_ = columns_[static_cast<size_t>(group_index_)].categories;
    return Status::Ok();
  }

  /// Parses the pending raw block into row-indexed buffers on the pool.
  Status ParsePending(ParsedBlock* out) {
    const size_t rows = pending_.rows();
    const size_t ncols = header_.size();
    out->numeric.assign(ncols, {});
    out->codes.assign(ncols, {});
    out->labels.assign(rows, 0);
    for (size_t c = 0; c < ncols; ++c) {
      if (static_cast<int>(c) == label_index_) continue;
      if (columns_[c].categorical) {
        out->codes[c].assign(rows, 0);
      } else {
        out->numeric[c].assign(rows, 0.0);
      }
    }
    FirstError first_error;
    auto parse_row = [&](size_t r) {
      thread_local std::vector<std::string> fields;
      const std::string_view record = RecordAt(r);
      if (!SplitCsvRecord(StripWhitespace(record), options_.delimiter, &fields)) {
        first_error.Consider(
            pending_.numbers[r],
            Status::InvalidArgument(StreamErrorAt(csv_path_, pending_.numbers[r],
                                                  pending_.offsets[r]) +
                                    " unterminated quoted field"));
        return;
      }
      if (fields.size() != header_.size()) {
        std::ostringstream msg;
        msg << StreamErrorAt(csv_path_, pending_.numbers[r], pending_.offsets[r])
            << " expected " << header_.size() << " fields, got " << fields.size();
        first_error.Consider(pending_.numbers[r],
                             Status::InvalidArgument(msg.str()));
        return;
      }
      for (size_t c = 0; c < header_.size(); ++c) {
        const std::string cell(StripWhitespace(fields[c]));
        if (static_cast<int>(c) == label_index_) {
          if (!options_.positive_label_value.empty()) {
            out->labels[r] = cell == options_.positive_label_value ? 1 : 0;
          } else {
            double value = 0.0;
            if (!ParseDouble(cell, &value) || (value != 0.0 && value != 1.0)) {
              std::ostringstream msg;
              msg << StreamErrorAt(csv_path_, pending_.numbers[r],
                                   pending_.offsets[r])
                  << " label cell '" << cell << "' is not 0/1";
              first_error.Consider(pending_.numbers[r],
                                   Status::InvalidArgument(msg.str()));
              return;
            }
            out->labels[r] = static_cast<int>(value);
          }
        } else if (columns_[c].categorical) {
          const auto it = columns_[c].code_of.find(cell);
          // Unseen category: the sentinel code (== dictionary size) one-hots
          // to all zeros through the Transform guard, matching how a fitted
          // encoder treats unseen validation categories.
          out->codes[c][r] = it != columns_[c].code_of.end()
                                 ? it->second
                                 : static_cast<int>(columns_[c].categories.size());
        } else {
          double value = 0.0;
          if (!ParseDouble(cell, &value) || !std::isfinite(value)) {
            std::ostringstream msg;
            msg << StreamErrorAt(csv_path_, pending_.numbers[r],
                                 pending_.offsets[r])
                << " cell '" << cell << "' in numeric column '" << header_[c]
                << "' is not a finite number";
            first_error.Consider(pending_.numbers[r],
                                 Status::InvalidArgument(msg.str()));
            return;
          }
          out->numeric[c][r] = value;
        }
      }
    };
    ThreadPool::Global().ParallelFor(rows, parse_row, options_.num_threads);
    if (first_error.set) return first_error.status;
    return Status::Ok();
  }

  /// Block-0 dataset used to fit the encoder. Block 0 defines the
  /// dictionaries, so every code is in range by construction and no unseen
  /// sentinel slot is needed.
  Dataset BuildFitDataset(const ParsedBlock& parsed) const {
    const size_t rows = pending_.rows();
    Dataset block(csv_path_);
    block.set_label_name(options_.label_column);
    for (size_t c = 0; c < header_.size(); ++c) {
      if (static_cast<int>(c) == label_index_) continue;
      const ColumnModel& model = columns_[c];
      if (model.categorical) {
        Column col = Column::Categorical(model.name, model.categories);
        for (size_t r = 0; r < rows; ++r) col.AppendCode(parsed.codes[c][r]);
        block.AddColumn(std::move(col));
      } else {
        Column col = Column::Numeric(model.name);
        for (size_t r = 0; r < rows; ++r) col.AppendNumeric(parsed.numeric[c][r]);
        block.AddColumn(std::move(col));
      }
    }
    block.SetLabels(parsed.labels);
    return block;
  }

  /// Maps each CSV column to its slot in the packed block streams by walking
  /// the encoder's plans in order (plan order is column order minus the label
  /// and dropped columns, matching the layout's segment order).
  void BuildEncodeTable() {
    encode_.assign(header_.size(), ColumnEncode{});
    std::unordered_map<std::string, ColumnEncode> by_name;
    size_t float_slot = 0;
    size_t code_slot = 0;
    for (const FeatureEncoder::ColumnPlan& plan : encoder_.plans()) {
      ColumnEncode encode;
      encode.in_features = true;
      encode.standardize = options_.encoder.standardize_numeric;
      encode.mean = plan.mean;
      encode.stddev = plan.stddev;
      encode.compact =
          plan.type == ColumnType::kNumeric ? float_slot++ : code_slot++;
      by_name.emplace(plan.name, encode);
    }
    for (size_t c = 0; c < header_.size(); ++c) {
      const auto it = by_name.find(header_[c]);
      if (it != by_name.end()) encode_[c] = it->second;
    }
  }

  /// Packs block 0's parsed buffers into the on-disk streams (bit-identical
  /// after densify to FeatureEncoder::Transform on the equivalent Dataset).
  void CompactFromParsed(const ParsedBlock& parsed, CompactBlock* out) const {
    const size_t rows = pending_.rows();
    const size_t floats_per_row = layout_.FloatsPerRow();
    const size_t codes_per_row = layout_.CodesPerRow();
    out->rows = static_cast<uint64_t>(rows);
    out->labels.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      out->labels[r] = static_cast<uint8_t>(parsed.labels[r]);
    }
    const std::vector<int>& group_codes =
        parsed.codes[static_cast<size_t>(group_index_)];
    out->groups.assign(group_codes.begin(), group_codes.end());
    out->floats.assign(rows * floats_per_row, 0.0f);
    out->codes.assign(rows * codes_per_row, 0);
    for (size_t c = 0; c < header_.size(); ++c) {
      const ColumnEncode& encode = encode_[c];
      if (!encode.in_features) continue;
      if (!columns_[c].categorical) {
        const std::vector<double>& values = parsed.numeric[c];
        for (size_t r = 0; r < rows; ++r) {
          double value = values[r];
          if (encode.standardize) value = (value - encode.mean) / encode.stddev;
          out->floats[r * floats_per_row + encode.compact] =
              static_cast<float>(value);
        }
      } else {
        const std::vector<int>& codes = parsed.codes[c];
        for (size_t r = 0; r < rows; ++r) {
          out->codes[r * codes_per_row + encode.compact] =
              static_cast<uint16_t>(codes[r]);
        }
      }
    }
  }

  /// Steady-state block parse: splits each record in place (no per-cell
  /// allocation on the quote-free fast path) and encodes cells straight into
  /// the packed block streams — numeric floats and categorical u16 codes,
  /// never a dense matrix. Rows land in preassigned slots, so output stays
  /// bit-identical at any thread count.
  Status FastParseBlock(CompactBlock* out) {
    const size_t rows = pending_.rows();
    const size_t ncols = header_.size();
    const size_t floats_per_row = layout_.FloatsPerRow();
    const size_t codes_per_row = layout_.CodesPerRow();
    out->rows = static_cast<uint64_t>(rows);
    out->labels.assign(rows, 0);
    out->groups.assign(rows, 0);
    out->floats.assign(rows * floats_per_row, 0.0f);
    out->codes.assign(rows * codes_per_row, 0);
    FirstError first_error;
    auto parse_row = [&](size_t r) {
      thread_local std::vector<std::string_view> cells;
      thread_local std::vector<std::string> fields;
      cells.resize(ncols);
      const std::string_view record = RecordAt(r);
      if (split_record_(record, options_.delimiter, ncols, cells.data()) !=
          SplitOutcome::kOk) {
        // Slow path: quotes are present, or the plain field count was off
        // (which quotes past the overflow point can also cause). The full
        // CSV splitter settles which — and produces the cells when the
        // record is actually valid.
        if (!SplitCsvRecord(StripWhitespace(record), options_.delimiter,
                            &fields)) {
          first_error.Consider(
              pending_.numbers[r],
              Status::InvalidArgument(StreamErrorAt(csv_path_,
                                                    pending_.numbers[r],
                                                    pending_.offsets[r]) +
                                      " unterminated quoted field"));
          return;
        }
        if (fields.size() != ncols) {
          std::ostringstream msg;
          msg << StreamErrorAt(csv_path_, pending_.numbers[r], pending_.offsets[r])
              << " expected " << ncols << " fields, got " << fields.size();
          first_error.Consider(pending_.numbers[r],
                               Status::InvalidArgument(msg.str()));
          return;
        }
        for (size_t c = 0; c < ncols; ++c) cells[c] = fields[c];
      }
      float* float_row = out->floats.data() + r * floats_per_row;
      uint16_t* code_row = out->codes.data() + r * codes_per_row;
      for (size_t c = 0; c < ncols; ++c) {
        const std::string_view cell = StripWhitespace(cells[c]);
        const ColumnEncode& encode = encode_[c];
        if (static_cast<int>(c) == label_index_) {
          if (!options_.positive_label_value.empty()) {
            out->labels[r] = cell == options_.positive_label_value ? 1 : 0;
          } else if (cell == "1") {
            out->labels[r] = 1;
          } else if (cell == "0") {
            out->labels[r] = 0;
          } else {
            double value = 0.0;
            if (!ParseDouble(cell, &value) || (value != 0.0 && value != 1.0)) {
              std::ostringstream msg;
              msg << StreamErrorAt(csv_path_, pending_.numbers[r],
                                   pending_.offsets[r])
                  << " label cell '" << cell << "' is not 0/1";
              first_error.Consider(pending_.numbers[r],
                                   Status::InvalidArgument(msg.str()));
              return;
            }
            out->labels[r] = static_cast<uint8_t>(value);
          }
        } else if (columns_[c].categorical) {
          if (!encode.in_features && static_cast<int>(c) != group_index_) {
            continue;  // dropped and not the group column: value is ignored
          }
          const int code = columns_[c].CodeOf(cell);
          if (static_cast<int>(c) == group_index_) out->groups[r] = code;
          // One-hot and raw-code columns both spill the bare code; the
          // unseen sentinel (== dictionary size) densifies to all zeros.
          if (encode.in_features) {
            code_row[encode.compact] = static_cast<uint16_t>(code);
          }
        } else {
          double value = 0.0;
          if (!ParseSmallInt(cell, &value) &&
              (!ParseDouble(cell, &value) || !std::isfinite(value))) {
            std::ostringstream msg;
            msg << StreamErrorAt(csv_path_, pending_.numbers[r],
                                 pending_.offsets[r])
                << " cell '" << cell << "' in numeric column '" << header_[c]
                << "' is not a finite number";
            first_error.Consider(pending_.numbers[r],
                                 Status::InvalidArgument(msg.str()));
            return;
          }
          if (!encode.in_features) continue;
          if (encode.standardize) value = (value - encode.mean) / encode.stddev;
          float_row[encode.compact] = static_cast<float>(value);
        }
      }
    };
    ThreadPool::Global().ParallelFor(rows, parse_row, options_.num_threads);
    if (first_error.set) return first_error.status;
    return Status::Ok();
  }

  Status FlushBlock() {
    const auto parse_start = std::chrono::steady_clock::now();
    CompactBlock out;
    if (!writer_initialized_) {
      // Block 0: infer types + dictionaries, fit the encoder on the block
      // dataset, then pack from the intermediate parse. Later blocks skip
      // all of this and parse straight into the packed streams.
      Status fit_status = FitFromFirstBlock();
      if (!fit_status.ok()) return fit_status;
      ParsedBlock parsed;
      Status parse_status = ParsePending(&parsed);
      if (!parse_status.ok()) return parse_status;
      encoder_.Fit(BuildFitDataset(parsed), options_.encoder);
      Result<ChunkedLayout> layout = ChunkedLayout::FromPlans(
          encoder_.plans(), options_.encoder.one_hot_categorical);
      if (!layout.ok()) return layout.status();
      layout_ = std::move(*layout);
      BuildEncodeTable();
      Result<ChunkedDatasetWriter> writer =
          ChunkedDatasetWriter::Create(out_path_, layout_);
      if (!writer.ok()) return writer.status();
      writer_ = std::make_unique<ChunkedDatasetWriter>(std::move(*writer));
      writer_initialized_ = true;
      CompactFromParsed(parsed, &out);
    } else {
      Status parse_status = FastParseBlock(&out);
      if (!parse_status.ok()) return parse_status;
    }
    const auto parse_end = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(parse_end - parse_start).count();
    parse_seconds_ += seconds;
    OF_COUNTER_ADD("ingest.parse_us", static_cast<int64_t>(seconds * 1e6));
    OF_COUNTER_ADD("ingest.rows", static_cast<int64_t>(out.rows));
    stats_.rows += out.rows;
    stats_.blocks += 1;
    Status status = writer_->AppendBlock(out);
    const double spill_seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - parse_end)
                                     .count();
    spill_seconds_ += spill_seconds;
    OF_COUNTER_ADD("ingest.spill_us", static_cast<int64_t>(spill_seconds * 1e6));
    pending_.Clear();
    return status;
  }

  std::string csv_path_;
  std::string out_path_;
  StreamIngestOptions options_;
  const SplitRecordFn split_record_;  ///< chosen once per ingest

  const char* map_base_ = nullptr;  ///< whole-file mapping (zero-copy path)
  size_t map_len_ = 0;

  bool saw_header_ = false;
  std::vector<std::string> header_;
  int label_index_ = -1;
  int group_index_ = -1;
  uint64_t record_number_ = 1;  // header is record 1

  RawBlock pending_;
  std::vector<ColumnModel> columns_;
  std::vector<ColumnEncode> encode_;
  ChunkedLayout layout_;
  std::vector<std::string> group_names_;
  FeatureEncoder encoder_;
  bool writer_initialized_ = false;
  std::unique_ptr<ChunkedDatasetWriter> writer_;

  IngestStats stats_;
  double parse_seconds_ = 0.0;
  double spill_seconds_ = 0.0;
};

}  // namespace

Result<IngestStats> StreamCsvToChunked(const std::string& csv_path,
                                       const std::string& out_path,
                                       const StreamIngestOptions& options) {
  StreamIngestor ingestor(csv_path, out_path, options);
  return ingestor.Run();
}

}  // namespace omnifair
