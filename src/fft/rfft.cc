#include "fft/rfft.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/env_gate.h"
#include "simd/dispatch.h"

namespace kshape::fft {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Per-thread complex scratch for the generic (non-power-of-two) fallback.
// Every FFT scratch buffer follows the same discipline: concurrent workers
// never share, which the thread-count-invariance guarantee relies on.
std::vector<Complex>& GenericScratch() {
  static thread_local std::vector<Complex> scratch;
  return scratch;
}

// Per-thread split planes of the power-of-two path: the half-size spectrum
// z and its transform t, h values each. No packed entry point nests another,
// so one set serves them all.
struct PackedPlanes {
  double* z_re;
  double* z_im;
  double* t_re;
  double* t_im;
};
PackedPlanes PackedScratch(std::size_t h) {
  static thread_local std::vector<double> planes;
  if (planes.size() < 4 * h) planes.resize(4 * h);
  double* p = planes.data();
  return PackedPlanes{p, p + h, p + 2 * h, p + 3 * h};
}

// out[i] = time[begin + i] * scale for i < count, where time is the
// interleaving time[2j] = re[j], time[2j+1] = im[j] of a half-size inverse
// transform: the deinterleave, the exact 1/h scale and the lag copy of the
// real inverse in one pass.
void InterleaveScaled(const double* re, const double* im, std::size_t begin,
                      std::size_t count, double scale, double* out) {
  std::size_t t = begin;
  const std::size_t end = begin + count;
  if (t < end && t % 2 == 1) {
    *out++ = im[t / 2] * scale;
    ++t;
  }
  for (; t + 2 <= end; t += 2) {
    out[0] = re[t / 2] * scale;
    out[1] = im[t / 2] * scale;
    out += 2;
  }
  if (t < end) *out = re[t / 2] * scale;
}

}  // namespace

RfftPlan::RfftPlan(std::size_t n) : n_(n) {
  KSHAPE_CHECK(n >= 1);
  packed_ = IsPowerOfTwo(n) && n >= 2;
  half_plan_ = packed_ ? &GetPlan(n / 2) : nullptr;
  if (packed_) {
    // Unpack twiddles e^{-2*pi*i*k/n} for k in [0, n/2] — one per packed bin.
    tw_re_.resize(bins());
    tw_im_.resize(bins());
    for (std::size_t k = 0; k < bins(); ++k) {
      const double angle =
          -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n_);
      tw_re_[k] = std::cos(angle);
      tw_im_[k] = std::sin(angle);
    }
  }
}

void RfftPlan::Forward(std::span<const double> x, double* out_re,
                       double* out_im) const {
  KSHAPE_CHECK_MSG(x.size() <= n_,
                   "RfftPlan pads, never truncates: n < series length");
  if (!packed_) {
    // Generic fallback: full complex transform (radix-2 for n=1, Bluestein
    // otherwise), then keep bins [0, n/2]. Bin 0 — and bin n/2 when n is
    // even — is exactly real for a real input, so its imaginary part is
    // stored as an exact zero rather than the transform's rounding residue;
    // this is what makes the packed-bin conjugate-symmetry invariant exact.
    std::vector<Complex>& data = GenericScratch();
    data.assign(n_, Complex(0, 0));
    for (std::size_t i = 0; i < x.size(); ++i) data[i] = Complex(x[i], 0.0);
    fft::Forward(&data);
    const std::size_t b = bins();
    for (std::size_t k = 0; k < b; ++k) {
      out_re[k] = data[k].real();
      out_im[k] = data[k].imag();
    }
    out_im[0] = 0.0;
    if (n_ % 2 == 0) out_im[n_ / 2] = 0.0;
    return;
  }

  // Power-of-two path: pack even/odd samples into one half-size complex
  // sequence z[j] = x[2j] + i*x[2j+1] (split planes), transform once at
  // h = n/2, and unpack
  //   X[k] = E[k] + w^k * O[k],  w = e^{-2*pi*i/n},
  // where E[k] = (Z[k] + conj(Z[h-k])) / 2 and
  //       O[k] = (Z[k] - conj(Z[h-k])) / (2i)
  // are the h-point DFTs of the even and odd subsequences. Bins 0 and h come
  // straight from Z[0]: X[0] = Re(Z0) + Im(Z0), X[h] = Re(Z0) - Im(Z0), both
  // exactly real.
  const std::size_t h = n_ / 2;
  const PackedPlanes p = PackedScratch(h);
  for (std::size_t j = 0; j < h; ++j) {
    p.z_re[j] = 2 * j < x.size() ? x[2 * j] : 0.0;
    p.z_im[j] = 2 * j + 1 < x.size() ? x[2 * j + 1] : 0.0;
  }
  half_plan_->Transform(p.z_re, p.z_im, p.t_re, p.t_im, /*inverse=*/false);

  out_re[0] = p.t_re[0] + p.t_im[0];
  out_im[0] = 0.0;
  out_re[h] = p.t_re[0] - p.t_im[0];
  out_im[h] = 0.0;
  for (std::size_t k = 1; k < h; ++k) {
    const Complex zk(p.t_re[k], p.t_im[k]);
    const Complex zmk = std::conj(Complex(p.t_re[h - k], p.t_im[h - k]));
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex bin = even + Complex(tw_re_[k], tw_im_[k]) * odd;
    out_re[k] = bin.real();
    out_im[k] = bin.imag();
  }
}

void RfftPlan::Inverse(const double* re, const double* im,
                       double* out) const {
  if (!packed_) {
    if (n_ == 1) {
      out[0] = re[0];
      return;
    }
    // Generic fallback: rebuild the full conjugate-symmetric spectrum from
    // the packed bins and run the full inverse. Bin 0 (and bin n/2 when n is
    // even) is treated as real per the packing contract.
    std::vector<Complex>& data = GenericScratch();
    data.resize(n_);
    const std::size_t b = bins();
    data[0] = Complex(re[0], 0.0);
    for (std::size_t k = 1; k < b; ++k) data[k] = Complex(re[k], im[k]);
    if (n_ % 2 == 0) data[n_ / 2] = Complex(re[n_ / 2], 0.0);
    for (std::size_t k = b; k < n_; ++k) data[k] = std::conj(data[n_ - k]);
    fft::Inverse(&data);
    for (std::size_t i = 0; i < n_; ++i) out[i] = data[i].real();
    return;
  }
  // Exact algebraic inverse of the packed forward: the fused unpack
  // recovers the half-size spectrum Z[k] = E[k] + i*O[k] (HalfInverse), the
  // h-point inverse transform of Z interleaves to x[2j] = Re(z[j]),
  // x[2j+1] = Im(z[j]), and its 1/h scale IS the full 1/n real inverse,
  // because E and O are exactly the h-point DFTs of the even/odd samples.
  const std::size_t h = n_ / 2;
  const PackedPlanes p = PackedScratch(h);
  HalfInverse(re, im, nullptr, nullptr, p.z_re, p.z_im, p.t_re, p.t_im);
  InterleaveScaled(p.t_re, p.t_im, 0, n_, 1.0 / static_cast<double>(h), out);
}

void RfftPlan::HalfInverse(const double* x_re, const double* x_im,
                           const double* y_re, const double* y_im,
                           double* z_re, double* z_im, double* t_re,
                           double* t_im) const {
  // From the packed bins C[0..h] (C[k+h] = conj(C[h-k]) by the real-input
  // symmetry):
  //   E[k] = (C[k] + conj(C[h-k])) / 2,
  //   O[k] = (C[k] - conj(C[h-k])) * conj(w^k) / 2,
  //   z[k] = E[k] + i*O[k],
  // one kernel pass that also forms C = X * conj(Y) in registers when Y is
  // given, then the unscaled half-size inverse transform of z.
  const std::size_t h = n_ / 2;
  simd::Active().mul_conj_unpack(x_re, x_im, y_re, y_im, tw_re_.data(),
                                 tw_im_.data(), h, z_re, z_im);
  half_plan_->Transform(z_re, z_im, t_re, t_im, /*inverse=*/true);
}

const RfftPlan& GetRfftPlan(std::size_t n) {
  // Same never-destroyed, construct-outside-the-lock caching as GetPlan.
  static auto* cache = new std::map<std::size_t, std::unique_ptr<RfftPlan>>();
  static auto* mu = new std::mutex();
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(n);
    if (it != cache->end()) return *it->second;
  }
  auto plan = std::make_unique<RfftPlan>(n);
  std::lock_guard<std::mutex> lock(*mu);
  const auto it = cache->emplace(n, std::move(plan)).first;
  return *it->second;
}

RfftSpectrum RfftForward(std::span<const double> x, std::size_t fft_len) {
  KSHAPE_CHECK(fft_len >= 1);
  KSHAPE_CHECK_MSG(
      x.size() <= fft_len,
      "RfftForward pads, never truncates: fft_len < series length");
  RfftSpectrum spectrum;
  spectrum.fft_len = fft_len;
  spectrum.re.resize(RfftBins(fft_len));
  spectrum.im.resize(RfftBins(fft_len));
  GetRfftPlan(fft_len).Forward(x, spectrum.re.data(), spectrum.im.data());
  return spectrum;
}

BatchSpectra::BatchSpectra(std::size_t count, std::size_t fft_len)
    : count_(count),
      fft_len_(fft_len),
      bins_(RfftBins(fft_len)),
      plan_(&GetRfftPlan(fft_len)),
      re_(count * bins_, 0.0),
      im_(count * bins_, 0.0) {
  KSHAPE_CHECK(fft_len >= 1);
}

void BatchSpectra::Transform(std::size_t i, std::span<const double> x) {
  KSHAPE_CHECK(i < count_);
  plan_->Forward(x, re_.data() + i * bins_, im_.data() + i * bins_);
}

RfftView BatchSpectra::view(std::size_t i) const {
  KSHAPE_CHECK(i < count_);
  return RfftView{fft_len_, re_.data() + i * bins_, im_.data() + i * bins_};
}

void CrossCorrelationFromRfft(const RfftPlan& plan, const RfftView& x,
                              const RfftView& y, std::size_t m,
                              std::vector<double>* cc) {
  const std::size_t len = x.fft_len;
  KSHAPE_CHECK_MSG(y.fft_len == len, "half-spectrum length mismatch");
  KSHAPE_CHECK_MSG(plan.n() == len, "plan/spectrum length mismatch");
  KSHAPE_CHECK(m >= 1);
  KSHAPE_CHECK(len >= 2 * m - 1);
  cc->resize(2 * m - 1);

  if (!plan.packed_) {
    // Generic (Bluestein) lengths: the product planes C[k] = X[k]*conj(Y[k])
    // (complex_mul_conj's arithmetic), then the generic inverse. On the real
    // bins both factors have exact-zero imaginary parts, so the product's
    // is an exact zero too — consistent with Inverse's real-bin contract.
    const std::size_t b = RfftBins(len);
    static thread_local std::vector<double> scratch;
    if (scratch.size() < 2 * b + len) scratch.resize(2 * b + len);
    double* prod_re = scratch.data();
    double* prod_im = prod_re + b;
    double* time = prod_im + b;
    for (std::size_t k = 0; k < b; ++k) {
      prod_re[k] = x.re[k] * y.re[k] + x.im[k] * y.im[k];
      prod_im[k] = x.im[k] * y.re[k] - x.re[k] * y.im[k];
    }
    plan.Inverse(prod_re, prod_im, time);
    // Negative lags live at the top of the circular buffer.
    std::copy(time + len - (m - 1), time + len, cc->data());
    std::copy(time, time + m, cc->data() + (m - 1));
    return;
  }

  // The hot half of the cached path: ONE fused product-unpack and ONE
  // half-size inverse transform per pair, with the interleave, the exact 1/h
  // scale and the lag reorder folded into the write of cc. cc[i] =
  // R_{i-(m-1)} (CrossCorrelationFft's layout): the m-1 negative lags are
  // the top of the circular buffer, lags 0..m-1 its start.
  const std::size_t h = len / 2;
  const PackedPlanes p = PackedScratch(h);
  plan.HalfInverse(x.re, x.im, y.re, y.im, p.z_re, p.z_im, p.t_re, p.t_im);
  const double scale = 1.0 / static_cast<double>(h);
  InterleaveScaled(p.t_re, p.t_im, len - (m - 1), m - 1, scale, cc->data());
  InterleaveScaled(p.t_re, p.t_im, 0, m, scale, cc->data() + (m - 1));
}

void CrossCorrelationFromRfft(const RfftView& x, const RfftView& y,
                              std::size_t m, std::vector<double>* cc) {
  CrossCorrelationFromRfft(GetRfftPlan(x.fft_len), x, y, m, cc);
}

std::vector<double> RfftCrossCorrelation(std::span<const double> x,
                                         std::span<const double> y) {
  const std::size_t m = x.size();
  KSHAPE_CHECK_MSG(y.size() == m, "cross-correlation requires equal lengths");
  KSHAPE_CHECK(m >= 1);
  const std::size_t fft_len = NextPowerOfTwo(2 * m - 1);
  const RfftPlan& plan = GetRfftPlan(fft_len);

  // Per-thread forward planes (the product/inverse scratch lives inside
  // CrossCorrelationFromRfft).
  struct Workspace {
    std::vector<double> x_re, x_im, y_re, y_im;
  };
  static thread_local Workspace ws;
  const std::size_t b = RfftBins(fft_len);
  ws.x_re.resize(b);
  ws.x_im.resize(b);
  ws.y_re.resize(b);
  ws.y_im.resize(b);
  plan.Forward(x, ws.x_re.data(), ws.x_im.data());
  plan.Forward(y, ws.y_re.data(), ws.y_im.data());

  std::vector<double> cc;
  CrossCorrelationFromRfft(
      plan, RfftView{fft_len, ws.x_re.data(), ws.x_im.data()},
      RfftView{fft_len, ws.y_re.data(), ws.y_im.data()}, m, &cc);
  return cc;
}

namespace {

common::EnvGate g_half_spectrum{"KSHAPE_HALF_SPECTRUM"};

}  // namespace

bool HalfSpectrumEnabled() { return g_half_spectrum.enabled(); }

void SetHalfSpectrumEnabledForTesting(bool enabled) {
  g_half_spectrum.SetForTesting(enabled);
}

}  // namespace kshape::fft
