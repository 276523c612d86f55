#include "model/fitted_model.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/env_gate.h"
#include "core/sbd_engine.h"
#include "fft/fft.h"
#include "fft/rfft.h"

namespace kshape::model {

namespace {

constexpr char kMagic[8] = {'K', 'S', 'H', 'M', 'O', 'D', 'E', 'L'};
constexpr std::uint32_t kHeaderBytes = 160;
constexpr std::size_t kMethodBytes = 48;
// Far above any plausible model, far below anything that could overflow the
// size arithmetic: the header fields are untrusted, so both k and m are
// range-checked before k*m*8 is ever formed.
constexpr std::uint64_t kMaxK = 1u << 20;
constexpr std::uint64_t kMaxM = 1u << 28;

common::EnvIntOverride g_model_version{"KSHAPE_MODEL_V",
                                       kModelFormatVersion};

// The fixed-size on-disk header. Plain scalar fields only; the layout is
// pinned by the static_asserts below and documented in fitted_model.h.
struct ModelHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t header_bytes;
  std::uint64_t k;
  std::uint64_t m;
  std::uint32_t half_spectrum;
  std::uint32_t pruning;
  std::uint32_t length_policy;
  std::uint32_t missing_policy;
  std::int64_t iterations;
  std::uint32_t converged;
  std::uint32_t reserved0;
  std::int64_t empty_cluster_reseeds;
  std::int64_t degenerate_centroids;
  std::int64_t distances_computed;
  std::int64_t distances_pruned_bounds;
  std::int64_t distances_abandoned_partial;
  std::int64_t sampled_series;
  char method[kMethodBytes];
};
static_assert(sizeof(ModelHeader) == kHeaderBytes,
              "the *.kmodel header layout is part of the format");
static_assert(offsetof(ModelHeader, iterations) == 48, "layout drift");
static_assert(offsetof(ModelHeader, method) == 112, "layout drift");

common::Status Corrupt(const std::string& path, const std::string& what) {
  return common::Status::InvalidArgument(path + ": " + what);
}

}  // namespace

std::uint32_t ModelFormatVersionStamp() {
  return static_cast<std::uint32_t>(g_model_version.value());
}

void SetModelFormatVersionStampForTesting(std::uint32_t version) {
  g_model_version.SetForTesting(version);
}

void ResetModelFormatVersionStampForTesting() {
  g_model_version.ResetForTesting();
}

FittedModel::FittedModel(std::vector<tseries::Series> centroids,
                         ModelFingerprint fingerprint, FitTelemetry telemetry,
                         std::string method)
    : fingerprint_(fingerprint),
      telemetry_(telemetry),
      method_(std::move(method)) {
  KSHAPE_CHECK_MSG(!centroids.empty(), "a fitted model needs >= 1 centroid");
  KSHAPE_CHECK(!centroids.front().empty());
  centroids_.Reserve(centroids.size(), centroids.front().size());
  for (const tseries::Series& c : centroids) {
    for (const double v : c) KSHAPE_CHECK(std::isfinite(v));
    centroids_.Append(c);
  }
  if (method_.size() >= kMethodBytes) method_.resize(kMethodBytes - 1);
}

common::Status FittedModel::Save(const std::string& path) const {
  if (empty()) {
    return common::Status::FailedPrecondition(
        "cannot save an empty FittedModel");
  }
  ModelHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = ModelFormatVersionStamp();
  header.header_bytes = kHeaderBytes;
  header.k = k();
  header.m = m();
  header.half_spectrum = fingerprint_.half_spectrum ? 1 : 0;
  header.pruning = fingerprint_.pruning ? 1 : 0;
  header.length_policy = static_cast<std::uint32_t>(fingerprint_.length_policy);
  header.missing_policy =
      static_cast<std::uint32_t>(fingerprint_.missing_policy);
  header.iterations = telemetry_.iterations;
  header.converged = telemetry_.converged ? 1 : 0;
  header.empty_cluster_reseeds = telemetry_.empty_cluster_reseeds;
  header.degenerate_centroids = telemetry_.degenerate_centroids;
  header.distances_computed = telemetry_.distances_computed;
  header.distances_pruned_bounds = telemetry_.distances_pruned_bounds;
  header.distances_abandoned_partial = telemetry_.distances_abandoned_partial;
  header.sampled_series = telemetry_.sampled_series;
  std::memcpy(header.method, method_.c_str(),
              std::min(method_.size() + 1, kMethodBytes - 1));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    return common::Status::IoError("cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(centroids_.data()),
            static_cast<std::streamsize>(k() * m() * sizeof(double)));
  out.close();
  if (!out.good()) {
    return common::Status::IoError("short write on " + path);
  }
  return common::Status::OK();
}

common::StatusOr<FittedModel> FittedModel::Load(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t actual_size = std::filesystem::file_size(path, ec);
  if (ec) {
    return common::Status::NotFound("no model file at " + path + ": " +
                                    ec.message());
  }
  if (actual_size < kHeaderBytes) {
    return Corrupt(path, "file shorter than the header (" +
                             std::to_string(actual_size) + " bytes)");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return common::Status::IoError("cannot open " + path);
  }
  ModelHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in.good()) {
    return common::Status::IoError("short read on " + path);
  }
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "unrecognized magic (not a *.kmodel file)");
  }
  if (header.version != kModelFormatVersion) {
    return Corrupt(path, "unsupported format version " +
                             std::to_string(header.version) +
                             " (this build reads v" +
                             std::to_string(kModelFormatVersion) + ")");
  }
  if (header.header_bytes != kHeaderBytes) {
    return Corrupt(path, "header geometry mismatch");
  }
  if (header.k < 1 || header.k > kMaxK) {
    return Corrupt(path, "k out of range: " + std::to_string(header.k));
  }
  if (header.m < 1 || header.m > kMaxM) {
    return Corrupt(path, "m out of range: " + std::to_string(header.m));
  }
  const std::uintmax_t expected_size =
      kHeaderBytes + static_cast<std::uintmax_t>(header.k) * header.m *
                         sizeof(double);
  if (actual_size != expected_size) {
    return Corrupt(path, "holds " + std::to_string(actual_size) +
                             " bytes, expected " +
                             std::to_string(expected_size) +
                             " (truncated or ragged centroid block)");
  }
  if (header.half_spectrum > 1 || header.pruning > 1 ||
      header.converged > 1) {
    return Corrupt(path, "boolean field out of range");
  }
  if (header.length_policy >
          static_cast<std::uint32_t>(tseries::LengthPolicy::kResample) ||
      header.missing_policy >
          static_cast<std::uint32_t>(tseries::MissingPolicy::kMeanFill)) {
    return Corrupt(path, "conditioning policy out of range");
  }
  if (header.method[kMethodBytes - 1] != '\0') {
    return Corrupt(path, "method name not NUL-terminated");
  }

  FittedModel model;
  model.fingerprint_.half_spectrum = header.half_spectrum != 0;
  model.fingerprint_.pruning = header.pruning != 0;
  model.fingerprint_.length_policy =
      static_cast<tseries::LengthPolicy>(header.length_policy);
  model.fingerprint_.missing_policy =
      static_cast<tseries::MissingPolicy>(header.missing_policy);
  model.telemetry_.iterations = header.iterations;
  model.telemetry_.converged = header.converged != 0;
  model.telemetry_.empty_cluster_reseeds = header.empty_cluster_reseeds;
  model.telemetry_.degenerate_centroids = header.degenerate_centroids;
  model.telemetry_.distances_computed = header.distances_computed;
  model.telemetry_.distances_pruned_bounds = header.distances_pruned_bounds;
  model.telemetry_.distances_abandoned_partial =
      header.distances_abandoned_partial;
  model.telemetry_.sampled_series = header.sampled_series;
  model.method_ = header.method;

  const std::size_t k = static_cast<std::size_t>(header.k);
  const std::size_t m = static_cast<std::size_t>(header.m);
  model.centroids_.Reserve(k, m);
  std::vector<double> row(m);
  for (std::size_t j = 0; j < k; ++j) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(m * sizeof(double)));
    if (!in.good()) {
      return common::Status::IoError("short read on " + path);
    }
    for (const double v : row) {
      if (!std::isfinite(v)) {
        return Corrupt(path, "centroid " + std::to_string(j) +
                                 " contains a non-finite value");
      }
    }
    model.centroids_.Append(row);
  }
  return model;
}

common::Status FittedModel::CheckFingerprint() const {
  if (empty()) {
    return common::Status::FailedPrecondition("empty model");
  }
  const bool half_now = fft::HalfSpectrumEnabled();
  const bool prune_now = core::PruningEnabled();
  if (fingerprint_.half_spectrum != half_now) {
    return common::Status::FailedPrecondition(
        "model fitted with half_spectrum=" +
        std::string(fingerprint_.half_spectrum ? "on" : "off") +
        " but the process gate is " + (half_now ? "on" : "off"));
  }
  if (fingerprint_.pruning != prune_now) {
    return common::Status::FailedPrecondition(
        "model fitted with pruning=" +
        std::string(fingerprint_.pruning ? "on" : "off") +
        " but the process gate is " + (prune_now ? "on" : "off"));
  }
  return common::Status::OK();
}

PredictResult Predict(const FittedModel& model,
                      const tseries::SeriesBatch& batch) {
  KSHAPE_CHECK_MSG(!model.empty(), "Predict on an empty model");
  KSHAPE_CHECK(!batch.empty());
  KSHAPE_CHECK_MSG(batch.length() == model.m(),
                   "batch length does not match the model's m");
  const std::size_t n = batch.size();

  AssignerOptions options;
  options.k = static_cast<int>(model.k());
  options.num_series = n;
  options.m = model.m();
  options.fft_len = fft::NextPowerOfTwo(2 * model.m() - 1);
  Assigner assigner(options);
  assigner.BeginIteration(model.centroids());

  // One forward FFT per incoming series, in the Assigner's configuration;
  // per-series spectra are a fixed arithmetic function of (series, fft_len),
  // so this engine is bit-for-bit the engine any fit built over the same
  // rows.
  const core::SbdEngine engine(batch, core::CrossCorrelationImpl::kFft,
                               assigner.half_spectrum(),
                               /*build_bound_planes=*/assigner.pruning());

  PredictResult result;
  result.labels.assign(n, 0);
  result.distances.assign(n, 0.0);
  assigner.AssignBlock(engine, 0, &result.labels, &result.distances);
  result.stats = assigner.iteration_stats();
  return result;
}

common::StatusOr<PredictResult> TryPredict(const FittedModel& model,
                                           const tseries::SeriesBatch& batch) {
  if (model.empty()) {
    return common::Status::FailedPrecondition(
        "Predict needs a fitted (non-empty) model");
  }
  if (batch.empty()) {
    return common::Status::InvalidArgument("empty batch");
  }
  if (batch.length() != model.m()) {
    return common::Status::InvalidArgument(
        "batch length " + std::to_string(batch.length()) +
        " does not match the model's m = " + std::to_string(model.m()));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const double v : batch[i]) {
      if (!std::isfinite(v)) {
        return common::Status::InvalidArgument(
            "series " + std::to_string(i) + " contains a non-finite value");
      }
    }
  }
  return Predict(model, batch);
}

namespace {

AssignerOptions ScorerAssignerOptions(const FittedModel& model) {
  KSHAPE_CHECK_MSG(!model.empty(), "OnlineScorer needs a non-empty model");
  AssignerOptions options;
  options.k = static_cast<int>(model.k());
  options.num_series = 1;
  options.m = model.m();
  options.fft_len = fft::NextPowerOfTwo(2 * model.m() - 1);
  return options;
}

std::vector<tseries::Series> CentroidRows(const FittedModel& model) {
  std::vector<tseries::Series> rows;
  rows.reserve(model.k());
  for (std::size_t j = 0; j < model.k(); ++j) {
    const tseries::SeriesView v = model.centroid(j);
    rows.emplace_back(v.begin(), v.end());
  }
  return rows;
}

}  // namespace

OnlineScorer::OnlineScorer(const FittedModel* model,
                           OnlineScorerOptions options)
    : model_(model),
      options_(options),
      centroid_rows_(CentroidRows(*model)),
      assigner_(ScorerAssignerOptions(*model)) {
  store_.Reserve(0, model_->m());
  // Frozen centroids: the queries are minted once here and reused by every
  // ingest — the "precomputed centroid spectra" half of the serving path.
  assigner_.BeginIteration(centroid_rows_);
}

OnlineScorer::Ingested OnlineScorer::Ingest(tseries::SeriesView series) {
  KSHAPE_CHECK_MSG(series.size() == model_->m(),
                   "ingested series length does not match the model's m");
  store_.Append(series);

  const tseries::SeriesBatch one(series.data(), 1, series.size());
  // Built in the configuration the Assigner pinned at construction, so the
  // frozen queries and every per-ingest engine match even if a test flips
  // the process gates mid-run.
  const core::SbdEngine engine(one, core::CrossCorrelationImpl::kFft,
                               assigner_.half_spectrum(),
                               /*build_bound_planes=*/assigner_.pruning());

  std::vector<int> label(1, 0);
  std::vector<double> distance(1, 0.0);
  const AssignmentIterationStats before = assigner_.iteration_stats();
  assigner_.AssignBlock(engine, 0, &label, &distance);
  const AssignmentIterationStats& after = assigner_.iteration_stats();
  stats_.computed += after.computed - before.computed;
  stats_.pruned_bounds += after.pruned_bounds - before.pruned_bounds;
  stats_.abandoned_partial += after.abandoned_partial - before.abandoned_partial;

  Ingested out;
  out.label = label[0];
  out.distance = distance[0];
  out.drifted = distance[0] > options_.drift_distance;
  labels_.push_back(out.label);
  ++ingested_since_swap_;
  if (out.drifted) ++drifted_;
  return out;
}

common::StatusOr<OnlineScorer::Ingested> OnlineScorer::TryIngest(
    tseries::SeriesView series) {
  if (series.size() != model_->m()) {
    return common::Status::InvalidArgument(
        "series length " + std::to_string(series.size()) +
        " does not match the model's m = " + std::to_string(model_->m()));
  }
  for (const double v : series) {
    if (!std::isfinite(v)) {
      return common::Status::InvalidArgument(
          "series contains a non-finite value");
    }
  }
  return Ingest(series);
}

bool OnlineScorer::refresh_due() const {
  if (options_.refresh_after_drifted > 0 &&
      drifted_ >= options_.refresh_after_drifted) {
    return true;
  }
  if (options_.refresh_after_ingested > 0 &&
      ingested_since_swap_ >= options_.refresh_after_ingested) {
    return true;
  }
  return false;
}

void OnlineScorer::SwapModel(const FittedModel* model) {
  KSHAPE_CHECK(model != nullptr && !model->empty());
  KSHAPE_CHECK_MSG(model->m() == model_->m(),
                   "a refreshed model must keep the series length");
  model_ = model;
  centroid_rows_ = CentroidRows(*model);
  assigner_ = Assigner(ScorerAssignerOptions(*model));
  assigner_.BeginIteration(centroid_rows_);
  drifted_ = 0;
  ingested_since_swap_ = 0;
}

}  // namespace kshape::model
