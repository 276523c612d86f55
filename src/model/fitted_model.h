// A fitted clustering model as a first-class, serializable artifact.
//
// The paper's headline claim is that k-Shape centroids are compact,
// domain-independent prototypes; FittedModel makes that operational: every
// centroid-producing ClusteringAlgorithm emits one (ClusteringResult::model),
// it round-trips through a versioned binary format (*.kmodel), and scoring —
// batch Predict() or incremental OnlineScorer ingestion — runs against the
// frozen centroids through the same Assigner scan the fit used.
//
// Binary format (single file, native-endian like the shard files — a
// machine-local artifact, not a wire format):
//
//   offset  size  field
//        0     8  magic "KSHMODEL"
//        8     4  u32 format version (1; KSHAPE_MODEL_V overrides the stamp)
//       12     4  u32 header bytes (= 160, validated on load)
//       16     8  u64 k
//       24     8  u64 m
//       32     4  u32 fingerprint: half_spectrum (0/1)
//       36     4  u32 fingerprint: pruning (0/1)
//       40     4  u32 fingerprint: length policy (tseries::LengthPolicy)
//       44     4  u32 fingerprint: missing policy (tseries::MissingPolicy)
//       48     8  i64 telemetry: iterations
//       56     4  u32 telemetry: converged (0/1)
//       60     4  u32 reserved (0)
//       64     8  i64 telemetry: empty_cluster_reseeds
//       72     8  i64 telemetry: degenerate_centroids
//       80     8  i64 telemetry: distances_computed
//       88     8  i64 telemetry: distances_pruned_bounds
//       96     8  i64 telemetry: distances_abandoned_partial
//      104     8  i64 telemetry: sampled_series
//      112    48  method name, NUL-padded
//      160  8km  centroid rows, k × m doubles, row-major
//
// Model files are untrusted input, so loading follows the sharded-store
// idiom: Status-returning Load/Validate with exact-size, range, and
// finiteness checks — a truncated, ragged, version-skewed, or corrupted file
// becomes an error, never an abort or an out-of-bounds read.
//
// Fingerprint semantics: the fingerprint records the configuration the model
// was FITTED under (spectrum layout, pruning, conditioning policies). The
// layout and pruning bits are the KSHAPE_HALF_SPECTRUM / KSHAPE_PRUNE gates
// at fit time; no per-call option selects either path, so the gates are
// exactly what the fit ran. It is diagnostic, not load-bearing: Predict() follows the current process gates,
// and the bit-identity contract (tests/fitted_model_test.cc) guarantees
// labels cannot depend on either side's gate settings. CheckFingerprint()
// reports divergence for callers that want fit-time parity (e.g. telemetry
// comparisons, which DO depend on the gates).

#ifndef KSHAPE_MODEL_FITTED_MODEL_H_
#define KSHAPE_MODEL_FITTED_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/assigner.h"
#include "tseries/conditioning.h"
#include "tseries/time_series.h"

namespace kshape::model {

/// Current *.kmodel format version. Save() stamps this (or the
/// KSHAPE_MODEL_V override, for version-skew testing); Load() accepts
/// exactly this.
constexpr std::uint32_t kModelFormatVersion = 1;

/// The process-wide KSHAPE_MODEL_V override: the version stamp Save()
/// writes. Unset means kModelFormatVersion.
std::uint32_t ModelFormatVersionStamp();

/// Test hooks for the version-skew matrix.
void SetModelFormatVersionStampForTesting(std::uint32_t version);
void ResetModelFormatVersionStampForTesting();

/// The configuration a model was fitted under: the process gates of the fit
/// and the conditioning policies of its input.
struct ModelFingerprint {
  bool half_spectrum = true;
  bool pruning = true;
  tseries::LengthPolicy length_policy = tseries::LengthPolicy::kReject;
  tseries::MissingPolicy missing_policy = tseries::MissingPolicy::kReject;
};

/// Telemetry snapshot of the fit that produced the model.
struct FitTelemetry {
  std::int64_t iterations = 0;
  bool converged = false;
  std::int64_t empty_cluster_reseeds = 0;
  std::int64_t degenerate_centroids = 0;
  std::int64_t distances_computed = 0;
  std::int64_t distances_pruned_bounds = 0;
  std::int64_t distances_abandoned_partial = 0;
  std::int64_t sampled_series = 0;
};

class FittedModel {
 public:
  /// Empty model (no centroids). Methods that never produce centroids
  /// (hierarchical, spectral) leave ClusteringResult::model in this state.
  FittedModel() = default;

  /// Builds a model from fit outputs. Centroids must be non-empty,
  /// equal-length, finite rows; aborts otherwise (fit outputs are trusted —
  /// untrusted bytes go through Load).
  FittedModel(std::vector<tseries::Series> centroids,
              ModelFingerprint fingerprint, FitTelemetry telemetry,
              std::string method);

  bool empty() const { return centroids_.empty(); }
  std::size_t k() const { return centroids_.size(); }
  std::size_t m() const { return centroids_.empty() ? 0 : centroids_.length(); }
  const tseries::SeriesStore& centroids() const { return centroids_; }
  tseries::SeriesView centroid(std::size_t j) const { return centroids_[j]; }
  const ModelFingerprint& fingerprint() const { return fingerprint_; }
  const FitTelemetry& telemetry() const { return telemetry_; }
  const std::string& method() const { return method_; }

  /// Writes the model to `path` (*.kmodel). IoError on filesystem failure.
  common::Status Save(const std::string& path) const;

  /// Reads and validates a model file. The inverse of Save: magic, version,
  /// header geometry, exact file size, field ranges, and centroid finiteness
  /// are all checked before any value is trusted.
  static common::StatusOr<FittedModel> Load(const std::string& path);

  /// FailedPrecondition when the current process gates diverge from the
  /// fingerprint (labels are unaffected by construction; telemetry and
  /// performance are not).
  common::Status CheckFingerprint() const;

 private:
  tseries::SeriesStore centroids_;
  ModelFingerprint fingerprint_;
  FitTelemetry telemetry_;
  std::string method_;
};

/// Batch scoring result.
struct PredictResult {
  std::vector<int> labels;
  std::vector<double> distances;  // SBD to the winning centroid
  AssignmentIterationStats stats;
};

/// Assigns every series of `batch` to its nearest model centroid — the
/// assignment step of the fit, run once against frozen centroids. Builds a
/// spectrum-cache engine over the batch (one forward FFT per series), mints
/// the centroid queries, and runs the Assigner scan with spectral early
/// abandoning under the current process gates. Labels are bit-identical
/// across thread counts, SIMD backends, spectrum layouts, and prune gates,
/// and across save→load (enforced by tests/fitted_model_test.cc).
/// Aborts on length mismatch or an empty model; TryPredict is the Status
/// boundary for untrusted input.
PredictResult Predict(const FittedModel& model,
                      const tseries::SeriesBatch& batch);

/// Status-returning boundary: rejects empty models, empty batches, length
/// mismatches, and non-finite values instead of aborting.
common::StatusOr<PredictResult> TryPredict(const FittedModel& model,
                                           const tseries::SeriesBatch& batch);

struct OnlineScorerOptions {
  /// An ingested series whose winning SBD exceeds this counts as drifted
  /// (poorly explained by every frozen centroid). SBD ranges over [0, 2];
  /// 1.0 is the uncorrelated-shapes midpoint.
  double drift_distance = 1.0;
  /// Flag a refresh once this many ingested series drifted. 0 = never.
  std::size_t refresh_after_drifted = 0;
  /// Flag a refresh once this many series were ingested. 0 = never.
  std::size_t refresh_after_ingested = 0;
};

/// Incremental ingestion against frozen centroids: the serving half of the
/// fit/predict split. Appends each series to a locked-length SeriesStore,
/// assigns it with the same Assigner scan as Predict (bit-identical labels),
/// and keeps drift counters that flag when a mini-batch centroid refresh is
/// due. Centroid queries are minted once at construction (the fit-once/
/// predict-many hot path spends one forward FFT + k inverse transforms per
/// ingested series).
///
/// Not thread-safe: like the sharded store's Acquire, this is a
/// coordinator-thread object; the scan inside still fans out on the pool.
class OnlineScorer {
 public:
  /// `model` must be non-empty and outlive the scorer.
  explicit OnlineScorer(const FittedModel* model,
                        OnlineScorerOptions options = OnlineScorerOptions{});

  struct Ingested {
    int label = 0;
    double distance = 0.0;
    bool drifted = false;
  };

  /// Appends + scores one series. Aborts on a length mismatch (the store's
  /// locked-length contract); TryIngest is the Status boundary.
  Ingested Ingest(tseries::SeriesView series);
  common::StatusOr<Ingested> TryIngest(tseries::SeriesView series);

  /// Everything ingested so far (locked to the model's m), with labels
  /// parallel to the rows.
  const tseries::SeriesStore& store() const { return store_; }
  const std::vector<int>& labels() const { return labels_; }

  std::size_t ingested() const { return labels_.size(); }
  std::size_t drifted() const { return drifted_; }

  /// True once either refresh threshold tripped: time to refit (e.g. via
  /// MiniBatchKShape over store()) and swap the model in.
  bool refresh_due() const;

  /// Swaps in a refreshed model (same m; k may differ) and resets the
  /// ingestion/drift counters. The accumulated store is kept — the caller
  /// decides what corpus the refit used.
  void SwapModel(const FittedModel* model);

  /// Cumulative scan telemetry across all ingests.
  const AssignmentIterationStats& stats() const { return stats_; }

 private:
  const FittedModel* model_;
  OnlineScorerOptions options_;
  std::vector<tseries::Series> centroid_rows_;
  Assigner assigner_;
  tseries::SeriesStore store_;
  std::vector<int> labels_;
  std::size_t drifted_ = 0;
  std::size_t ingested_since_swap_ = 0;
  AssignmentIterationStats stats_;
};

}  // namespace kshape::model

#endif  // KSHAPE_MODEL_FITTED_MODEL_H_
