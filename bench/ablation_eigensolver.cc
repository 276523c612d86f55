// Ablation of a design choice called out in DESIGN.md: the eigenvector
// computation inside shape extraction (Algorithm 2). The maximizer of the
// Rayleigh quotient is the dominant eigenvector of the PSD matrix M; the
// reference implementation calls a full eigensolver (MATLAB eigs), while
// this library defaults to warm-started power iteration applied MATRIX-FREE
// (O(n_c*m) per step over the pooled members, the m x m Gram never formed).
// Four variants, cheapest first:
//   matfree-warm : matrix-free power iteration, warm-started (the default)
//   gram-warm    : dense Gram + power iteration, warm-started
//   gram-cold    : dense Gram + power iteration, random start
//   full-eigen   : dense Gram + full O(m^3) symmetric eigendecomposition
// The per-phase telemetry (ClusteringResult::extraction_seconds /
// assignment_seconds, monotonic clock summed across refinement iterations)
// separates what each variant actually changes — the extraction phase — from
// the shared assignment scans.

#include <cstdint>
#include <iostream>

#include "common/random.h"
#include "common/stopwatch.h"
#include "core/kshape.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "harness/table.h"
#include "tseries/normalization.h"

namespace {

struct Variant {
  const char* name;
  kshape::core::KShapeOptions options;
};

}  // namespace

int main() {
  using namespace kshape;

  std::vector<Variant> variants(4);
  variants[0].name = "matfree-warm";  // The library default.
  variants[1].name = "gram-warm";
  variants[1].options.shape_options.matrix_free_min_members = SIZE_MAX;
  variants[2].name = "gram-cold";
  variants[2].options.shape_options.matrix_free_min_members = SIZE_MAX;
  variants[2].options.shape_options.warm_start = false;
  variants[3].name = "full-eigen";
  variants[3].options.shape_options.use_power_iteration = false;

  harness::PrintSection(std::cout,
                        "Ablation: shape-extraction eigensolver (matrix-free "
                        "/ Gram power iteration vs full decomposition), CBF, "
                        "n = 150");
  harness::TablePrinter table({"m", "variant", "total (s)", "extract (s)",
                               "assign (s)", "vs matfree", "Rand"});

  for (std::size_t m : {64, 128, 256, 512}) {
    common::Rng data_rng(m);
    std::vector<tseries::Series> series;
    std::vector<int> labels;
    for (int i = 0; i < 150; ++i) {
      const int klass = i % 3;
      series.push_back(
          tseries::ZNormalized(data::MakeCbf(klass, m, &data_rng)));
      labels.push_back(klass);
    }

    double matfree_extract = 0.0;
    for (const Variant& variant : variants) {
      const core::KShape algorithm(variant.options);
      common::Rng rng(7);
      common::Stopwatch timer;
      const auto result = algorithm.Cluster(series, 3, &rng);
      const double seconds = timer.ElapsedSeconds();
      if (&variant == &variants[0]) matfree_extract = result.extraction_seconds;
      table.AddRow(
          {std::to_string(m), variant.name,
           harness::FormatDouble(seconds, 3),
           harness::FormatDouble(result.extraction_seconds, 3),
           harness::FormatDouble(result.assignment_seconds, 3),
           matfree_extract > 0.0
               ? harness::FormatRatio(result.extraction_seconds /
                                      matfree_extract)
               : "-",
           harness::FormatDouble(eval::RandIndex(labels,
                                                 result.assignments))});
    }
  }
  table.Print(std::cout);
  std::cout << "(All variants converge to the same centroids because M's "
               "dominant\neigenvalue is well separated on real clusters; "
               "\"vs matfree\" compares\nextraction-phase seconds against the "
               "default. The matrix-free path skips the\nO(n_c*m^2) Gram "
               "accumulation and pays O(n_c*m) per power step, so its edge\n"
               "grows with m; the warm start — seeding with the previous "
               "centroid — shaves\nthe step count on every variant that uses "
               "it. The assignment column is the\nshared NCC scan, untouched "
               "by the eigensolver choice.)\n";
  return 0;
}
