#ifndef OMNIFAIR_ML_BUNDLE_H_
#define OMNIFAIR_ML_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/encoder.h"
#include "ml/classifier.h"
#include "util/status.h"

namespace omnifair {

// ---------------------------------------------------------------------------
// Versioned binary model bundles (DESIGN.md §15).
//
// A bundle is the library's one model format: SaveFairModel/LoadFairModel
// files, checkpoint fit records and served models are all bundle images.
// One image holds the classifier's parameters as mmap-friendly flat arrays,
// the fitted feature encoder's binary spec (so raw rows can be encoded at
// serve time), and the fairness metadata (λ vector, satisfied flag,
// validation accuracy, metric/sensitive-attribute labels). Wire layout:
//
//   [header 32B]  magic "OFBD" | version | flags | section count | file size
//   [section table]  per section: name, dtype, absolute offset, byte size
//   [payloads]    each starting on a 64-byte boundary, zero-padded between
//   [trailer 4B]  CRC-32 over every preceding byte
//
// Numeric payloads are raw little-endian arrays (f64 / i32 / u64) aligned
// for the simd kernels, so loading memory-maps the file and aliases the
// arrays in place — no parse, no copy. The arrays are exactly what each
// family's model class holds (ModelArray, ml/classifier.h): LR, NB and MLP
// parameter vectors, and for trees the breadth-first struct-of-arrays node
// tables the builders pack (TreeTable, ml/tree_table.h: `offsets[]`,
// `feature[]`, `threshold[]`, `left_child[]`, `leaf_value[]`; the right
// child is always `left_child + 1`). Encoding writes them as they are, and
// MakeModel views them in place.
//
// The reader validates magic/version/declared size before trusting anything,
// checks the CRC over the whole image, and bounds-checks the section table
// and every node table; malformed input yields typed kDataLoss /
// kInvalidArgument statuses naming the offending byte offset, never UB.
// ---------------------------------------------------------------------------

/// Bundle file magic: the bytes 'O','F','B','D' read as a little-endian u32.
inline constexpr uint32_t kBundleMagic = 0x4442464Fu;
/// Bundle codec version; readers accept exactly this one.
inline constexpr uint32_t kBundleVersion = 2;
/// Payload alignment: one cache line, and enough for any simd vector width.
inline constexpr uint64_t kBundleAlign = 64;

/// Element type of a bundle section payload.
enum class BundleDtype : uint8_t {
  kBytes = 0,  ///< opaque bytes (meta blobs, the encoder spec)
  kF64 = 1,    ///< raw little-endian IEEE-754 doubles
  kI32 = 2,    ///< raw little-endian int32
  kU64 = 3,    ///< raw little-endian uint64
};

/// One section-table entry (as surfaced by `bundle inspect` and tests).
struct BundleSectionInfo {
  std::string name;
  BundleDtype dtype = BundleDtype::kBytes;
  uint64_t offset = 0;  ///< absolute file offset of the payload
  uint64_t size = 0;    ///< payload bytes
};

/// Model-level metadata carried alongside the weights so a bundle is
/// auditable on raw rows without the original training run.
struct BundleMeta {
  std::string family;  ///< Classifier::Name() of the packed model
  std::vector<double> lambdas;
  bool satisfied = false;
  double val_accuracy = 0.0;
  /// Optional fairness-declaration labels ("" / 0 when not provided).
  std::string metric;
  std::string sensitive_attribute;
  double epsilon = 0.0;
  /// Encoded feature dimensionality (written from encoder.NumFeatures();
  /// used to bound-check tree feature indices and weight shapes on load).
  uint64_t num_features = 0;
};

/// Serializes `model` + `encoder` + `meta` into an in-memory bundle image.
/// Supported families: logistic_regression,
/// naive_bayes, decision_tree, random_forest, gbdt, mlp; anything else
/// (e.g. baseline ensembles) fails with kUnsupported.
Result<std::vector<uint8_t>> EncodeBundle(const Classifier& model,
                                          const FeatureEncoder& encoder,
                                          const BundleMeta& meta);

/// EncodeBundle, then publishes the image at `path` (temp file + fsync +
/// atomic rename, so a published bundle is durable).
Status WriteBundle(const Classifier& model, const FeatureEncoder& encoder,
                   const BundleMeta& meta, const std::string& path);

/// Header + section table + CRC status of a bundle file, without
/// constructing a model (the `bundle inspect` surface). Fails only when the
/// file cannot be read or is not a bundle at all; a CRC mismatch is
/// reported via `crc_ok = false` so inspect can still print the table.
struct BundleInspection {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t file_size = 0;
  uint32_t crc_stored = 0;
  uint32_t crc_computed = 0;
  bool crc_ok = false;
  std::vector<BundleSectionInfo> sections;

  /// Fixed-width text rendering (header, section table, CRC status).
  std::string ToString() const;
};
Result<BundleInspection> InspectBundle(const std::string& path);

/// A loaded, immutable bundle. Open() memory-maps the file and every
/// numeric array is aliased directly into the mapping (zero-copy); when mmap
/// is unavailable (or disabled via OpenOptions) the file is read into one
/// owned buffer instead and the arrays alias that. Either way the bundle is
/// fully validated up front — models created from it never re-check.
///
/// Lifetime: models returned by MakeModel() share ownership of the bundle,
/// so the mapping outlives every model using it. Thread-safe after Open
/// (everything is const).
class ModelBundle : public std::enable_shared_from_this<ModelBundle> {
 public:
  struct OpenOptions {
    /// Forces the owned-buffer fallback when false (used by tests to prove
    /// mmap/no-mmap parity; also what non-POSIX builds get).
    bool allow_mmap = true;
  };

  /// Loads + validates a bundle. Typed failures: kDataLoss for truncation /
  /// CRC mismatch / short sections, kInvalidArgument for foreign files,
  /// unknown versions or malformed tables, each naming a byte offset where
  /// applicable. The FaultInjector site `io.corrupt_read` flips one payload
  /// byte after the read to exercise the CRC guard.
  static Result<std::shared_ptr<const ModelBundle>> Open(
      const std::string& path, const OpenOptions& options);
  /// Open with default options (mmap allowed).
  static Result<std::shared_ptr<const ModelBundle>> Open(
      const std::string& path);
  /// Validates an in-memory image (e.g. a checkpoint fit record) that the
  /// bundle takes ownership of; same checks and typed failures as a file.
  static Result<std::shared_ptr<const ModelBundle>> Open(
      std::vector<uint8_t> image);

  ~ModelBundle();
  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

  const BundleMeta& meta() const { return meta_; }
  const FeatureEncoder& encoder() const { return encoder_; }
  const std::vector<BundleSectionInfo>& sections() const { return sections_; }
  /// True when the arrays alias a live mmap (false: owned-buffer fallback).
  bool mapped() const { return mapped_; }
  uint64_t file_size() const { return size_; }

  /// The family's own model class (LogisticRegressionModel ... GbdtModel)
  /// over the in-place arrays: zero-copy, and the model keeps this bundle
  /// alive. This is the one way out of a bundle: LoadFairModel, checkpoint
  /// replay and serving all call it. Scores equal the encoded model's bit
  /// for bit for every family, Matrix storage mode and thread count, and
  /// encoding the model again yields the same bundle bytes. `num_threads` is
  /// the RF/GBDT chunk-parallel predict knob (1 = fully sequential).
  std::unique_ptr<Classifier> MakeModel(int num_threads = 1) const;

 private:
  friend struct BundleParser;
  ModelBundle() = default;

  /// Runs BundleParser over the image `bundle` holds.
  static Result<std::shared_ptr<const ModelBundle>> Parse(
      std::shared_ptr<ModelBundle> bundle);

  const uint8_t* base() const;

  BundleMeta meta_;
  FeatureEncoder encoder_;
  std::vector<BundleSectionInfo> sections_;
  bool mapped_ = false;
  uint64_t size_ = 0;
  void* map_addr_ = nullptr;          // mmap region (mapped_ == true)
  std::vector<uint8_t> owned_;        // fallback buffer (mapped_ == false)

  // Family tag + typed views into base() resolved once at Open.
  enum class Family { kLr, kNb, kDt, kRf, kGbdt, kMlp };
  Family family_ = Family::kLr;

  struct TreeSections {
    uint64_t num_trees = 0;
    const uint64_t* tree_offsets = nullptr;  // num_trees + 1 entries
    const int32_t* feature = nullptr;        // -1 marks a leaf
    const double* threshold = nullptr;
    const int32_t* left_child = nullptr;     // right child = left_child + 1
    const double* leaf_value = nullptr;
    double base_score = 0.0;     // gbdt only
    double learning_rate = 1.0;  // gbdt only
  };
  TreeSections trees_;

  struct LrSections {
    uint64_t dims = 0;
    const double* coef = nullptr;
    double intercept = 0.0;
  };
  LrSections lr_;

  struct MlpSections {
    uint64_t hidden = 0;
    uint64_t dims = 0;
    const double* w1 = nullptr;  // hidden x dims, row-major
    const double* b1 = nullptr;  // hidden
    const double* w2 = nullptr;  // hidden
    double b2 = 0.0;
  };
  MlpSections mlp_;

  struct NbSections {
    uint64_t dims = 0;
    double log_prior_ratio = 0.0;
    const double* mean0 = nullptr;
    const double* mean1 = nullptr;
    const double* var0 = nullptr;
    const double* var1 = nullptr;
  };
  NbSections nb_;
};

}  // namespace omnifair

#endif  // OMNIFAIR_ML_BUNDLE_H_
