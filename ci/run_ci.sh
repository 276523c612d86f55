#!/usr/bin/env bash
# The repository's CI: every tier-1 test, the example CLIs' fit/predict round
# trip, the sharded fig12 smoke run, the end-to-end benchmark's checker tests,
# and the sanitizer suites.
#
# 1. Release build (examples/ binaries built explicitly, so interface
#    refactors cannot silently break them). Tier-1 tests run five times:
#    - KSHAPE_THREADS=1 and KSHAPE_THREADS=4: the suites assert bit-identical
#      results across thread counts, so running the whole tier at two
#      settings catches scheduling-dependent output anywhere in the library;
#    - KSHAPE_SIMD=scalar: forces the reference kernel backend (the SIMD
#      determinism contract says results cannot change);
#    - KSHAPE_HALF_SPECTRUM=off: forces the full-complex spectrum cache (the
#      half-spectrum equivalence contract says labels cannot change);
#    - KSHAPE_PRUNE=off: forces exhaustive exact scans, the ++ seeding scan
#      included (the pruning equivalence contract says labels cannot
#      change).
#    Then a kshape_fit -> kshape_predict round trip exercises the .kmodel
#    artifact through the example CLIs, and the sharded fig12 scalability
#    bench runs in --smoke mode (out-of-core exact + mini-batch runs). Last,
#    perfbench/test_checks.py builds the end-to-end benchmark against src/
#    and runs its checker tests, so a library API change that breaks the
#    benchmark fails here. Equivalence between fast and reference paths
#    (backends, spectrum layouts, pruning, extraction, model round trips) is
#    asserted by the tier-1 suites, not by bench binaries.
# 2. -march=native release build: the strictest determinism setting — the
#    compiler is free to fuse/vectorize everything OUTSIDE the pinned TUs,
#    so tier-1 passing here proves the firewalls actually hold: the kernel
#    TUs of src/simd/, the transform TUs of src/fft/ and the SBD engine's
#    distance TU (src/model/CMakeLists), so native spectra, cross-
#    correlations and cached distances are bitwise the default build's.
#    simd_kernels_test.cc and rfft_test.cc carry the same firewall
#    (tests/CMakeLists.txt), so their unfused std::complex references —
#    rfft_test's classic-transform oracle among them — stay unfused on FMA
#    hosts.
# 3. ThreadSanitizer build; parallel_test, thread_pool_test, sbd_cache_test,
#    rfft_test, simd_kernels_test, pruning_test, sharded_store_test,
#    shape_extraction_test, minibatch_kshape_test, fitted_model_test,
#    kshape_test and multivariate_test run under TSan. They cover the pool,
#    the FFT/RFFT plan caches, the spectrum-cached SBD pipeline, the kernel
#    dispatch cache, the assignment scan and its per-chunk counter sums, the
#    shard residency cache, the sharded assignment fan-out, the matrix-free
#    extraction matvec (RowPoolMatVec's disjoint partial blocks), Predict's
#    parallel assignment over a frozen model, the k-Shape shift record (cells
#    written by the parallel assignment scan, read by the refinement on the
#    coordinating thread), and the multichannel engine pre-pass and scans
#    (per-channel spectrum slots, channel-summed peaks in thread_local
#    buffers). TSAN_SUITES below is the one list of them.
# 4. AddressSanitizer+UBSan build; the robustness suites (degenerate inputs,
#    property sweeps over hostile data, conditioning) plus simd_kernels_test
#    (unaligned loads, odd tails), rfft_test (packed-bin indexing),
#    pruning_test (bound-plane indexing), sharded_store_test (truncated or
#    corrupt shards), minibatch_kshape_test (sampled scatter indexing),
#    shape_extraction_test (pooled-row and partial-block indexing),
#    fitted_model_test (the .kmodel corruption matrix), kshape_test and
#    sbd_cache_test (members aligned by the assignment's recorded shift, so
#    a stale or sentinel shift that reaches the row indexing is reported),
#    and multivariate_test (channel-strided spectrum slots, bound planes and
#    per-channel accumulator pools) run under ASan+UBSan. ASAN_SUITES below
#    is the one list of them.
#
# Usage: ci/run_ci.sh [build-dir-prefix]   (default: build-ci)

set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-ci}"
RELEASE_DIR="${PREFIX}-release"
TSAN_DIR="${PREFIX}-tsan"
ASAN_DIR="${PREFIX}-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> Release build (${RELEASE_DIR})"
cmake -B "${RELEASE_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${RELEASE_DIR}" -j "${JOBS}"

echo "==> example binaries"
cmake --build "${RELEASE_DIR}" -j "${JOBS}" \
      --target quickstart ecg_clustering stock_patterns ucr_file_tool \
               estimate_k multichannel kshape_fit kshape_predict

for threads in 1 4; do
  echo "==> tier1 tests, KSHAPE_THREADS=${threads}"
  (cd "${RELEASE_DIR}" &&
   KSHAPE_THREADS="${threads}" ctest -L tier1 --output-on-failure -j "${JOBS}")
done

echo "==> tier1 tests, KSHAPE_SIMD=scalar (forced reference kernel backend)"
(cd "${RELEASE_DIR}" &&
 KSHAPE_SIMD=scalar ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> tier1 tests, KSHAPE_HALF_SPECTRUM=off (forced full-complex spectra)"
(cd "${RELEASE_DIR}" &&
 KSHAPE_HALF_SPECTRUM=off ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> tier1 tests, KSHAPE_PRUNE=off (forced exhaustive exact scans and ++ seeding)"
(cd "${RELEASE_DIR}" &&
 KSHAPE_PRUNE=off ctest -L tier1 --output-on-failure -j "${JOBS}")

echo "==> fit/predict round-trip smoke (kshape_fit -> .kmodel -> kshape_predict)"
MODEL_FILE="$(mktemp -u /tmp/kshape_ci_model.XXXXXX.kmodel)"
"${RELEASE_DIR}/examples/kshape_fit" "${MODEL_FILE}" --per-class 10 --length 64
"${RELEASE_DIR}/examples/kshape_predict" "${MODEL_FILE}" --per-class 5
rm -f "${MODEL_FILE}"

echo "==> sharded fig12 smoke test (out-of-core exact + mini-batch runs)"
(cd "${RELEASE_DIR}" && ./bench/fig12_scalability --sharded --smoke)

echo "==> end-to-end benchmark checker tests (perfbench built against src/)"
python3 perfbench/test_checks.py

NATIVE_DIR="${PREFIX}-native"
echo "==> -march=native release build (${NATIVE_DIR})"
cmake -B "${NATIVE_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
      -DKSHAPE_MARCH_NATIVE=ON
cmake --build "${NATIVE_DIR}" -j "${JOBS}"

echo "==> tier1 tests under -march=native (kernel, transform and engine firewalls)"
(cd "${NATIVE_DIR}" && ctest -L tier1 --output-on-failure -j "${JOBS}")

# Each sanitizer stage names its suites once: the same list is built and run.
TSAN_SUITES=(parallel_test thread_pool_test sbd_cache_test rfft_test
             simd_kernels_test pruning_test sharded_store_test
             shape_extraction_test minibatch_kshape_test fitted_model_test
             kshape_test multivariate_test)
ASAN_SUITES=(degenerate_input_test robustness_properties_test tseries_test
             rfft_test simd_kernels_test pruning_test sharded_store_test
             shape_extraction_test minibatch_kshape_test fitted_model_test
             kshape_test sbd_cache_test multivariate_test)

echo "==> ThreadSanitizer build (${TSAN_DIR})"
cmake -B "${TSAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DKSHAPE_SANITIZE=thread
cmake --build "${TSAN_DIR}" -j "${JOBS}" --target "${TSAN_SUITES[@]}"

echo "==> race check: the ${#TSAN_SUITES[@]} threaded suites under TSan"
# Run the parallel paths at a thread count high enough to force real
# interleaving even on small CI machines.
for suite in "${TSAN_SUITES[@]}"; do
  echo "--> ${suite}"
  KSHAPE_THREADS=4 TSAN_OPTIONS="halt_on_error=1" "${TSAN_DIR}/tests/${suite}"
done

echo "==> ASan+UBSan build (${ASAN_DIR})"
cmake -B "${ASAN_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DKSHAPE_SANITIZE=address,undefined
cmake --build "${ASAN_DIR}" -j "${JOBS}" --target "${ASAN_SUITES[@]}"

echo "==> hostile-input check: the ${#ASAN_SUITES[@]} suites under ASan+UBSan"
for suite in "${ASAN_SUITES[@]}"; do
  echo "--> ${suite}"
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      "${ASAN_DIR}/tests/${suite}"
done

echo "==> CI OK"
