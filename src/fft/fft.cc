#include "fft/fft.h"

#include <cmath>
#include <map>
#include <span>
#include <mutex>

#include "common/check.h"
#include "simd/dispatch.h"

namespace kshape::fft {

namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

std::size_t NextPowerOfTwo(std::size_t n) {
  KSHAPE_CHECK(n >= 1);
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool IsPowerOfTwo(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

Radix2Plan::Radix2Plan(std::size_t n) : n_(n) {
  KSHAPE_CHECK_MSG(IsPowerOfTwo(n), "Radix2Plan requires a power-of-two size");
  if (n_ < 2) return;
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n_) ++log2n;

  // The n-point table w[k] = e^{-2*pi*i*k/n}, k < n/2; stage len reads its
  // entries k = j*n/len, so every butterfly multiplies by the same bits the
  // classic strided-table transform does.
  std::vector<Complex> twiddles(n_ / 2);
  for (std::size_t k = 0; k < n_ / 2; ++k) {
    const double angle = -2.0 * kPi * static_cast<double>(k) /
                         static_cast<double>(n_);
    twiddles[k] = Complex(std::cos(angle), std::sin(angle));
  }
  tw_re_.resize(n_ - 1);
  tw_im_.resize(n_ - 1);
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t j = 0; j < half; ++j) {
      tw_re_[half - 1 + j] = twiddles[j * (n_ / len)].real();
      tw_im_[half - 1 + j] = twiddles[j * (n_ / len)].imag();
    }
  }

  quarter_rev_.resize(n_ / 4);
  for (std::size_t r = 0; r < n_ / 4; ++r) {
    std::size_t rev = 0;
    std::size_t v = r;
    for (std::size_t b = 0; b + 2 < log2n; ++b) {
      rev = (rev << 1) | (v & 1);
      v >>= 1;
    }
    quarter_rev_[r] = rev;
  }
}

void Radix2Plan::Transform(const double* in_re, const double* in_im,
                           double* out_re, double* out_im,
                           bool inverse) const {
  simd::Radix2Tables tables;
  tables.n = n_;
  tables.tw_re = tw_re_.data();
  tables.tw_im = tw_im_.data();
  tables.quarter_rev = quarter_rev_.data();
  simd::Active().radix2_transform(tables, in_re, in_im, out_re, out_im,
                                  inverse);
}

void Radix2Plan::TransformInterleaved(Complex* data, bool inverse) const {
  // Per-thread split scratch (in and out planes), grown to the largest size
  // seen: concurrent workers never share it (the thread-count-invariance
  // guarantee).
  static thread_local std::vector<double> planes;
  if (planes.size() < 4 * n_) planes.resize(4 * n_);
  double* in_re = planes.data();
  double* in_im = in_re + n_;
  double* out_re = in_im + n_;
  double* out_im = out_re + n_;
  for (std::size_t i = 0; i < n_; ++i) {
    in_re[i] = data[i].real();
    in_im[i] = data[i].imag();
  }
  Transform(in_re, in_im, out_re, out_im, inverse);
  if (inverse) {
    // Exact: n is a power of two.
    const double scale = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      data[i] = Complex(out_re[i] * scale, out_im[i] * scale);
    }
  } else {
    for (std::size_t i = 0; i < n_; ++i) {
      data[i] = Complex(out_re[i], out_im[i]);
    }
  }
}

void Radix2Plan::Forward(Complex* data) const {
  TransformInterleaved(data, false);
}

void Radix2Plan::Inverse(Complex* data) const {
  TransformInterleaved(data, true);
}

const Radix2Plan& GetPlan(std::size_t n) {
  // Function-local static pointer so the cache is never destroyed (the plans
  // are immutable and reclaiming them at exit would gain nothing). The map is
  // mutex-guarded so concurrent ParallelFor workers can share one cache; the
  // returned plans are heap-allocated and immutable, so references stay valid
  // and usable without the lock.
  static auto* cache = new std::map<std::size_t, std::unique_ptr<Radix2Plan>>();
  static auto* mu = new std::mutex();
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(n);
    if (it != cache->end()) return *it->second;
  }
  // Construct outside the lock: the O(n log n) twiddle/bit-reverse setup must
  // not stall every other pool worker on first use of a size. If two threads
  // race on the same n, both build identical plans and emplace keeps the
  // first; the loser's copy is discarded.
  auto plan = std::make_unique<Radix2Plan>(n);
  std::lock_guard<std::mutex> lock(*mu);
  const auto it = cache->emplace(n, std::move(plan)).first;
  return *it->second;
}

namespace {

// Precomputed state for Bluestein's chirp-z transform of one length n: the
// chirp sequence and the forward spectrum of the convolution kernel b. Both
// depend only on n, so they get the same plan treatment as the radix-2
// twiddles instead of being rebuilt on every call — only the data-dependent
// a-sequence work remains per transform.
class BluesteinPlan {
 public:
  explicit BluesteinPlan(std::size_t n)
      : n_(n), m_(NextPowerOfTwo(2 * n - 1)), plan_(&GetPlan(m_)), chirp_(n) {
    // chirp[j] = exp(-i*pi*j^2/n); compute j^2 mod 2n in integers to keep the
    // reduced angle exact for large j.
    for (std::size_t j = 0; j < n; ++j) {
      const unsigned long long jj =
          (static_cast<unsigned long long>(j) * j) % (2ULL * n);
      const double angle = -kPi * static_cast<double>(jj) /
                           static_cast<double>(n);
      chirp_[j] = Complex(std::cos(angle), std::sin(angle));
    }

    b_spectrum_.assign(m_, Complex(0, 0));
    b_spectrum_[0] = std::conj(chirp_[0]);
    for (std::size_t j = 1; j < n; ++j) {
      b_spectrum_[j] = std::conj(chirp_[j]);
      b_spectrum_[m_ - j] = std::conj(chirp_[j]);
    }
    plan_->Forward(b_spectrum_.data());
  }

  // Expresses the n-point DFT of `data` as a linear convolution with the
  // cached kernel, evaluated with power-of-two FFTs.
  void Forward(std::vector<Complex>* data) const {
    // Per-thread scratch, so concurrent workers transforming the same
    // length never share the a-buffer.
    static thread_local std::vector<Complex> a;
    a.assign(m_, Complex(0, 0));
    for (std::size_t j = 0; j < n_; ++j) a[j] = (*data)[j] * chirp_[j];

    plan_->Forward(a.data());
    for (std::size_t j = 0; j < m_; ++j) a[j] *= b_spectrum_[j];
    plan_->Inverse(a.data());

    for (std::size_t j = 0; j < n_; ++j) (*data)[j] = a[j] * chirp_[j];
  }

 private:
  std::size_t n_;
  std::size_t m_;
  const Radix2Plan* plan_;
  std::vector<Complex> chirp_;
  std::vector<Complex> b_spectrum_;
};

// Same never-destroyed, construct-outside-the-lock caching as GetPlan.
const BluesteinPlan& GetBluesteinPlan(std::size_t n) {
  static auto* cache =
      new std::map<std::size_t, std::unique_ptr<BluesteinPlan>>();
  static auto* mu = new std::mutex();
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(n);
    if (it != cache->end()) return *it->second;
  }
  auto plan = std::make_unique<BluesteinPlan>(n);
  std::lock_guard<std::mutex> lock(*mu);
  const auto it = cache->emplace(n, std::move(plan)).first;
  return *it->second;
}

void BluesteinForward(std::vector<Complex>* data) {
  GetBluesteinPlan(data->size()).Forward(data);
}

}  // namespace

void Forward(std::vector<Complex>* data) {
  KSHAPE_CHECK(!data->empty());
  const std::size_t n = data->size();
  if (n == 1) return;
  if (IsPowerOfTwo(n)) {
    GetPlan(n).Forward(data->data());
  } else {
    BluesteinForward(data);
  }
}

void Inverse(std::vector<Complex>* data) {
  KSHAPE_CHECK(!data->empty());
  const std::size_t n = data->size();
  // IDFT(x) = conj(DFT(conj(x))) / n, valid for any length.
  for (auto& v : *data) v = std::conj(v);
  Forward(data);
  const double scale = 1.0 / static_cast<double>(n);
  for (auto& v : *data) v = std::conj(v) * scale;
}

std::vector<Complex> RealForward(std::span<const double> x, std::size_t n) {
  KSHAPE_CHECK(n >= 1);
  std::vector<Complex> data(n, Complex(0, 0));
  const std::size_t copy = std::min(n, x.size());
  for (std::size_t i = 0; i < copy; ++i) data[i] = Complex(x[i], 0.0);
  Forward(&data);
  return data;
}

std::vector<Complex> Spectrum(std::span<const double> x,
                              std::size_t fft_len) {
  KSHAPE_CHECK(fft_len >= 1);
  KSHAPE_CHECK_MSG(x.size() <= fft_len,
                   "Spectrum pads, never truncates: fft_len < series length");
  std::vector<Complex> data(fft_len, Complex(0, 0));
  for (std::size_t i = 0; i < x.size(); ++i) data[i] = Complex(x[i], 0.0);
  Forward(&data);
  return data;
}

void CrossCorrelationFromSpectra(const std::vector<Complex>& x_spectrum,
                                 const std::vector<Complex>& y_spectrum,
                                 std::size_t m, std::vector<double>* cc) {
  const std::size_t len = x_spectrum.size();
  KSHAPE_CHECK_MSG(y_spectrum.size() == len, "spectrum length mismatch");
  KSHAPE_CHECK(m >= 1);
  KSHAPE_CHECK(len >= 2 * m - 1);

  // Per-thread product buffer, as in CrossCorrelationImpl: concurrent
  // per-pair evaluations never share scratch, which the bitwise
  // thread-count-invariance guarantee relies on.
  static thread_local std::vector<Complex> c;
  c.resize(len);
  // Vectorized X[k] * conj(Y[k]) over the packed (re, im) spectra.
  // std::complex<double> is array-layout-compatible with double[2], so the
  // kernel streams the buffers directly.
  simd::Active().complex_mul_conj(
      reinterpret_cast<const double*>(x_spectrum.data()),
      reinterpret_cast<const double*>(y_spectrum.data()),
      reinterpret_cast<double*>(c.data()), len);
  // The hot half of the cached path: one inverse transform per pair. Power-of-
  // two lengths go straight to the plan (skipping the conjugation passes of
  // the generic Inverse); Bluestein lengths reuse the cached chirp plan.
  if (IsPowerOfTwo(len)) {
    GetPlan(len).Inverse(c.data());
  } else {
    Inverse(&c);
  }

  cc->resize(2 * m - 1);
  for (std::size_t i = 0; i < 2 * m - 1; ++i) {
    const long long lag = static_cast<long long>(i) -
                          static_cast<long long>(m - 1);
    const std::size_t idx =
        lag >= 0 ? static_cast<std::size_t>(lag)
                 : len - static_cast<std::size_t>(-lag);
    (*cc)[i] = c[idx].real();
  }
}

namespace {

// Shared implementation of the full cross-correlation sequence: transforms
// z = x + i*y once at length fft_len, unpacks the two spectra, multiplies
// X[k] * conj(Y[k]), and inverse-transforms. Every direct Sbd() call lands
// here, so the transform buffers are reused instead of being reallocated on
// every call. They are thread_local: every ParallelFor worker gets its own
// scratch, so concurrent SBD evaluations never share FFT buffers (a
// requirement of the library's thread-count-invariance guarantee).
std::vector<double> CrossCorrelationImpl(std::span<const double> x,
                                         std::span<const double> y,
                                         std::size_t fft_len) {
  const std::size_t m = x.size();
  KSHAPE_CHECK_MSG(y.size() == m, "cross-correlation requires equal lengths");
  KSHAPE_CHECK(m >= 1);
  KSHAPE_CHECK(fft_len >= 2 * m - 1);

  struct Workspace {
    std::vector<Complex> z;
    std::vector<Complex> c;
  };
  // A value (not a leaked pointer like the plan cache) so each pool worker's
  // scratch is reclaimed when its thread exits.
  static thread_local Workspace ws;
  ws.z.assign(fft_len, Complex(0, 0));
  ws.c.resize(fft_len);
  std::vector<Complex>& z = ws.z;
  std::vector<Complex>& c = ws.c;

  for (std::size_t i = 0; i < m; ++i) z[i] = Complex(x[i], y[i]);
  Forward(&z);

  // Unpack spectra of the two real inputs and form C[k] = X[k]*conj(Y[k]).
  // X[k] = (Z[k] + conj(Z[L-k])) / 2, Y[k] = (Z[k] - conj(Z[L-k])) / (2i).
  const std::size_t len = fft_len;
  for (std::size_t k = 0; k < len; ++k) {
    const Complex zk = z[k];
    const Complex zmk = std::conj(z[(len - k) % len]);
    const Complex xk = 0.5 * (zk + zmk);
    const Complex yk = Complex(0, -0.5) * (zk - zmk);
    c[k] = xk * std::conj(yk);
  }
  Inverse(&c);

  // cc[i] = R_{i-(m-1)}(x, y); negative lags live at the top of the circular
  // buffer.
  std::vector<double> cc(2 * m - 1);
  for (std::size_t i = 0; i < 2 * m - 1; ++i) {
    const long long lag = static_cast<long long>(i) -
                          static_cast<long long>(m - 1);
    const std::size_t idx =
        lag >= 0 ? static_cast<std::size_t>(lag)
                 : len - static_cast<std::size_t>(-lag);
    cc[i] = c[idx].real();
  }
  return cc;
}

}  // namespace

std::vector<double> CrossCorrelationFft(std::span<const double> x,
                                        std::span<const double> y) {
  const std::size_t m = x.size();
  KSHAPE_CHECK(m >= 1);
  return CrossCorrelationImpl(x, y, NextPowerOfTwo(2 * m - 1));
}

std::vector<double> CrossCorrelationFftNoPow2(std::span<const double> x,
                                              std::span<const double> y) {
  const std::size_t m = x.size();
  KSHAPE_CHECK(m >= 1);
  return CrossCorrelationImpl(x, y, 2 * m - 1);
}

std::vector<double> CrossCorrelationNaive(std::span<const double> x,
                                          std::span<const double> y) {
  const std::size_t m = x.size();
  KSHAPE_CHECK_MSG(y.size() == m, "cross-correlation requires equal lengths");
  KSHAPE_CHECK(m >= 1);
  std::vector<double> cc(2 * m - 1, 0.0);
  for (std::size_t i = 0; i < 2 * m - 1; ++i) {
    const long long k = static_cast<long long>(i) -
                        static_cast<long long>(m - 1);
    double sum = 0.0;
    if (k >= 0) {
      for (std::size_t l = 0; l + static_cast<std::size_t>(k) < m; ++l) {
        sum += x[l + static_cast<std::size_t>(k)] * y[l];
      }
    } else {
      const std::size_t s = static_cast<std::size_t>(-k);
      for (std::size_t l = 0; l + s < m; ++l) {
        sum += x[l] * y[l + s];
      }
    }
    cc[i] = sum;
  }
  return cc;
}

std::vector<double> Convolve(std::span<const double> a,
                             std::span<const double> b) {
  KSHAPE_CHECK(!a.empty() && !b.empty());
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t fft_len = NextPowerOfTwo(out_len);

  std::vector<Complex> z(fft_len, Complex(0, 0));
  for (std::size_t i = 0; i < a.size(); ++i) z[i] += Complex(a[i], 0.0);
  for (std::size_t i = 0; i < b.size(); ++i) z[i] += Complex(0.0, b[i]);
  Forward(&z);

  std::vector<Complex> c(fft_len);
  for (std::size_t k = 0; k < fft_len; ++k) {
    const Complex zk = z[k];
    const Complex zmk = std::conj(z[(fft_len - k) % fft_len]);
    const Complex ak = 0.5 * (zk + zmk);
    const Complex bk = Complex(0, -0.5) * (zk - zmk);
    c[k] = ak * bk;
  }
  Inverse(&c);

  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = c[i].real();
  return out;
}

}  // namespace kshape::fft
