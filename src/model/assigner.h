// The assign-series-to-centroids step, extracted into one implementation.
//
// Its callers: the k-Shape iteration driver (core::ClusterBlocks, for
// in-memory, sharded and multichannel runs alike), batch and online scoring
// (model/fitted_model.h), and the classify-against-candidates path behind
// the SBD BatchScanner (src/core/sbd.cc). The pruning layers — spectral
// early-abandon NCC, the Hamerly-style movement bounds and the ++ seeding
// triangle test — and the telemetry partition are defined exactly once.
//
// One scan body serves every entry point: per series, the owner's distance
// first, then the ascending-j argmin with spectral early abandoning, behind
// the movement bounds when they are on. AssignBlock and AssignSample reach it
// through the block's SbdEngine; AssignBlockWith through a caller distance
// that never abandons and records no shift. The ++ seeding scan has its own
// per-series body beside it, reached the same two ways (SeedBlock,
// SeedBlockWith) and chunked the same way.
//
// Gates: the Assigner reads KSHAPE_HALF_SPECTRUM and KSHAPE_PRUNE once, at
// construction (pruning is off when fft_len == 0), and exposes them through
// half_spectrum() / pruning() so the caller builds engines to match. Pruning
// off means no bound planes, and SbdEngine::DistanceWithAbandon without
// planes is the exact distance and never abandons, so the same body is the
// exhaustive scan: same comparison sequence, same computed pairs. The
// retired AssignerOptions::use_half_spectrum and use_pruning are these two
// gate reads.
//
// Ownership rules:
//   - The Assigner owns the per-iteration centroid queries (minted in
//     BeginIteration) and the movement-bound state (ub/lb/shift arrays).
//     Telemetry is summed per scan chunk and added to the iteration totals
//     once per chunk; no per-series cells exist. Callers own the centroids,
//     the assignment vector, the optional distance and shift records, and
//     the engines.
//   - The shift record (`shifts`, optional on AssignBlock/AssignSample)
//     holds, per scanned series, the winning NCC peak's shift against the
//     query of the centroid it was assigned to — the lag shape extraction
//     needs to align that member to the same centroid on the next
//     refinement. A series whose owner distance was computed (a full scan,
//     or the movement bounds' owner-only re-test) gets its shift; a series
//     the bounds prune whole gets kNoShift; a series outside the scanned
//     rows or sample is not written. The caller resets the record when its
//     entries stop matching the centroids (sampled passes, repair).
//   - Engines are passed per block: an in-memory run passes one engine
//     with base 0, a sharded run passes each shard's engine with the
//     shard's global base row. All engines of one clustering run must share
//     one configuration (m, C, fft_len, spectrum layout, bound planes) — the
//     MakeQueryFor interchange contract — which is what makes the minted
//     queries valid against every block.
//   - ++ seeding (SBD-D² sampling) runs before the first iteration: the
//     caller draws each pick from its rng, AddSeed registers it, and
//     SeedBlock / SeedBlockWith fold it into every row's nearest-seed state
//     (seed_distances(), nearest_seeds()), which the Assigner owns. The
//     caller samples the next pick from those distances.
//   - The iteration protocol is: SnapshotCentroids (before refinement) →
//     BeginIteration (after refinement) → AssignBlock/AssignSample per block
//     (optionally recording shifts) → read iteration_stats() →
//     FinishIteration(reseeds). The shifts recorded in one iteration are
//     read by the next refinement, against queries() — still this
//     iteration's queries until the next BeginIteration. The engine-free
//     AssignBlockWith needs no queries; without BeginIteration its counters
//     keep adding up.
//
// Determinism: each parallel worker writes only its own assignments[i] and
// bound cells; comparison sequences are ascending in the centroid index with
// strict-less updates. The telemetry counters are integers, so their totals
// are exact in any chunk order. Results are bit-identical across thread
// counts, SIMD backends, spectrum layouts (labels), and prune gates (labels).

#ifndef KSHAPE_MODEL_ASSIGNER_H_
#define KSHAPE_MODEL_ASSIGNER_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "core/sbd_engine.h"
#include "tseries/time_series.h"

namespace kshape::model {

/// Telemetry partition of one assignment iteration. The invariant (pinned by
/// tests/pruning_test.cc): computed + pruned_bounds + abandoned_partial ==
/// n * k for full passes — every (series, centroid) pair is either computed
/// exactly, pruned wholesale by the movement bounds, or abandoned partway
/// through the spectral bound.
struct AssignmentIterationStats {
  long long computed = 0;
  long long pruned_bounds = 0;
  long long abandoned_partial = 0;
};

/// Result of a nearest-candidate scan (classify / serving path).
struct NearestResult {
  std::size_t index = 0;
  double distance = 0.0;
  long long computed = 0;   // exact distances evaluated
  long long abandoned = 0;  // candidates dropped by the spectral bound
};

struct AssignerOptions {
  int k = 0;                // number of centroids
  std::size_t num_series = 0;  // n: sizes the movement-bound cells
  std::size_t m = 0;        // channel length
  std::size_t channels = 1;  // C: rows hold C·m values, channel-major
  // Padded transform length of the engines this run uses; 0 for engine-free
  // runs (custom assignment distances), which skip query minting and prune
  // nothing.
  std::size_t fft_len = 0;
  // Hamerly-style movement bounds (stateful per series; requires that every
  // series sees every centroid update, so the sampled driver leaves it off).
  // Effective only when pruning() is on.
  bool use_movement_bounds = false;
};

class Assigner {
 public:
  /// The shift-record sentinel: no shift is on record for the series.
  static constexpr int kNoShift = std::numeric_limits<int>::min();

  explicit Assigner(const AssignerOptions& options);

  /// Records the pre-refinement centroids the movement bounds will measure
  /// shifts against. Call before refinement mutates the centroids; no-op
  /// unless movement bounds are on and currently valid.
  void SnapshotCentroids(const tseries::SeriesBatch& centroids);

  /// Starts an iteration against the (post-refinement) centroids: mints this
  /// iteration's centroid queries (k forward transforms, sequential), derives
  /// the centroid-shift distances when the bounds are valid, and resets the
  /// iteration telemetry. Serving paths with frozen centroids call this once
  /// and then AssignBlock many times.
  void BeginIteration(const tseries::SeriesBatch& centroids);

  /// Assigns every cached row of `engine` to its nearest centroid; engine
  /// row r is global series base + r, writing assignments[base + r].
  /// Parallel over rows with disjoint writes. `distances`, when non-null,
  /// receives the winning distance per global index (full scans only:
  /// rejected when movement bounds are on, since a bounds-pruned series
  /// computes no distance at all). `shifts`, when non-null (size
  /// num_series), receives per global index the winning peak's shift, or
  /// kNoShift for a series the movement bounds pruned whole. Null costs
  /// nothing and changes neither labels nor telemetry.
  void AssignBlock(const core::SbdEngine& engine, std::size_t base,
                   std::vector<int>* assignments,
                   std::vector<double>* distances = nullptr,
                   std::vector<int>* shifts = nullptr);

  /// Engine-free variant for custom assignment distances: the same scan over
  /// global rows [base, base + rows) with dist(j, i) supplying the distance
  /// from centroid j to global series i. Nothing abandons and no shift is
  /// recorded, so every row computes k distances. Requires pruning() off,
  /// as it is whenever fft_len == 0.
  void AssignBlockWith(const std::function<double(int, std::size_t)>& dist,
                       std::size_t base, std::size_t rows,
                       std::vector<int>* assignments);

  /// Sampled variant: assigns only the global indices sample[pos, stop),
  /// all of which must fall inside this engine's block. Movement bounds are
  /// never consulted or updated (sampled iterations violate their
  /// every-series-sees-every-update premise); the spectral abandon layer
  /// still applies when pruning is on. `shifts`, when non-null, receives
  /// the winning shift of each sampled index and of no other.
  void AssignSample(const core::SbdEngine& engine, std::size_t base,
                    const std::vector<std::size_t>& sample, std::size_t pos,
                    std::size_t stop, std::vector<int>* assignments,
                    std::vector<int>* shifts = nullptr);

  /// Registers the next ++ seed (a copy of one corpus row, C·m values):
  /// mints its query, with bound planes when pruning() is on, and, for every
  /// seed after the first, measures its distance to each earlier seed — the
  /// channel-summed SBD of an engine over this row against the kept seed
  /// queries, outside the seeding counters. Engine-free runs (fft_len == 0)
  /// only count the seed.
  void AddSeed(tseries::SeriesView seed);

  /// Folds the newest seed into the nearest-seed state of every cached row
  /// of `engine` (engine row r is global series base + r). The first seed
  /// computes every distance. A later seed p skips row i, with seed s its
  /// nearest so far and δ = sqrt(min(SBD, 1)) the metric of DESIGN.md
  /// ("Pruned seeding"), when (δ(s, p) − δ(s, i))² ≥ SBD(s, i) + margin —
  /// then δ(p, i) ≥ δ(s, i) — and otherwise abandons spectrally at
  /// SBD(s, i). Both only drop pairs that cannot lower the row's distance,
  /// and the state changes only on a strict decrease of the squared
  /// distance, so the state is bitwise the exhaustive scan's. With pruning
  /// off every pair is computed. Parallel over rows with disjoint writes;
  /// the pairs add to seeding_stats().
  void SeedBlock(const core::SbdEngine& engine, std::size_t base);

  /// Engine-free variant: dist(j, i) is the distance from seed j (always the
  /// newest) to global series i, for rows [base, base + rows). Computes
  /// every pair.
  void SeedBlockWith(const std::function<double(int, std::size_t)>& dist,
                     std::size_t base, std::size_t rows);

  /// Per global series, the SBD to its nearest seed so far (squared, its
  /// D² sampling weight) and that seed's index in AddSeed order.
  const std::vector<double>& seed_distances() const { return seed_d_; }
  const std::vector<int>& nearest_seeds() const { return nearest_seed_; }

  /// The seeding pairs scanned so far: computed + pruned_bounds (skipped by
  /// the triangle test) + abandoned_partial == n · seeds.
  const AssignmentIterationStats& seeding_stats() const {
    return seeding_stats_;
  }

  /// Ends the iteration: the movement bounds stay valid only when the
  /// empty-cluster repair rewired nothing (repair moves assignments behind
  /// the bounds' back, so a full rebuild is the only safe continuation).
  void FinishIteration(int reseeds);

  /// Telemetry of the current iteration, summed over the blocks and samples
  /// scanned since BeginIteration.
  const AssignmentIterationStats& iteration_stats() const { return stats_; }

  /// This iteration's centroid queries (for callers' repair scans, and for
  /// the refinement that follows: aligning a member with no shift on record
  /// costs one MaxNcc against these).
  const std::vector<core::SbdEngine::Query>& queries() const {
    return queries_;
  }

  /// The gates pinned at construction: the spectrum layout the queries are
  /// minted in, and whether they carry bound planes (KSHAPE_PRUNE, off when
  /// fft_len == 0). Engines scanned by this Assigner must be built with the
  /// same two settings.
  bool half_spectrum() const { return half_; }
  bool pruning() const { return pruning_; }

  /// The one nearest-candidate scan: sequential argmin over the engine's
  /// cached series with spectral early abandoning (nothing abandons when
  /// neither the engine nor the query has bound planes). The abandon cutoff
  /// carries `bound_slack` headroom over the best-so-far so ulp-level bound
  /// rounding can never flip a near-tie: the result index/distance is
  /// identical to DistanceToAll + first-strict-minimum. Backs the SBD
  /// BatchScanner (classify) and the serving path.
  static NearestResult NearestSeries(
      const core::SbdEngine& engine, const core::SbdEngine::Query& q,
      double bound_slack = core::SbdEngine::kDefaultBoundSlack);

 private:
  // The one per-series scan body: global index `i`, engine or callback row
  // `row`, reading distances through `dist` (see assigner.cc). Movement
  // bounds are consulted and updated only when `bounds` is set. Adds this
  // series' pairs to `counts`.
  template <typename Dist>
  void ScanIndex(const Dist& dist, std::size_t i, std::size_t row,
                 bool bounds, std::vector<int>* assignments,
                 std::vector<double>* distances, std::vector<int>* shifts,
                 AssignmentIterationStats* counts);

  // The ++ seeding body for global index `i`: folds the newest seed into
  // its nearest-seed state, adding the pair to `counts`.
  template <typename Dist>
  void SeedIndex(const Dist& dist, std::size_t i, std::size_t row,
                 AssignmentIterationStats* counts);

  AssignerOptions options_;
  bool half_ = false;
  bool pruning_ = false;
  bool bounds_ = false;  // use_movement_bounds && pruning_
  std::vector<core::SbdEngine::Query> queries_;

  // Movement-bound state, sqrt(SBD) domain (see the scan for the algebra).
  std::vector<double> ub_r_, lb_r_, shift_r_;
  std::vector<tseries::Series> prev_centroids_;
  bool bounds_valid_ = false;
  bool use_bounds_iter_ = false;
  double max_shift1_ = 0.0, max_shift2_ = 0.0;
  int max_shift_arg_ = -1;

  AssignmentIterationStats stats_;

  // ++ seeding state: the seed queries, sqrt(min(SBD, 1)) from the newest
  // seed to each earlier one, and per series the SBD to, and index of, its
  // nearest seed.
  int seeds_ = 0;
  std::vector<core::SbdEngine::Query> seed_queries_;
  std::vector<double> seed_gap_r_;
  std::vector<double> seed_d_;
  std::vector<int> nearest_seed_;
  AssignmentIterationStats seeding_stats_;
};

}  // namespace kshape::model

#endif  // KSHAPE_MODEL_ASSIGNER_H_
