// Column update primitives shared by the serial and batched solvers.
//
// The batched solvers promise: column k of a fused multi-RHS solve is
// bitwise identical to the serial solver run alone on that column. The
// serial solver calls these helpers on contiguous arrays; the batched
// solver gathers a column into contiguous scratch and calls the same
// helpers. The libraries build with -ffp-contract=off, so each update
// rounds as written wherever it is inlined or vectorized.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace cscv::recon::colmath {

/// r = b - r (elementwise).
template <typename T>
void residual_from(const T* b, T* r, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) r[i] = b[i] - r[i];
}

/// r = (b - r) * w (the SART weighted residual).
template <typename T>
void weighted_residual(const T* b, const T* w, T* r, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) r[i] = (b[i] - r[i]) * w[i];
}

/// v = v > 0 ? 1 / v : 0 (elementwise) — inverts a SIRT/SART row- or
/// column-sum normalizer; a zero sum leaves its entry untouched.
template <typename T>
void invert_positive(T* v, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) v[i] = v[i] > T(0) ? T(1) / v[i] : T(0);
}

/// v *= w (elementwise).
template <typename T>
void scale_by(T* v, const T* w, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) v[i] *= w[i];
}

/// acc += p (elementwise) — the shard-reduce primitive. The distributed
/// coordinator and its in-process reference both fold partial
/// backprojections through it in shard-id order, so the reduce is
/// bitwise-identical on both paths.
template <typename T>
void accumulate(T* acc, const T* p, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) acc[i] += p[i];
}

/// x += lambda * inv_col * back — the SIRT update step.
template <typename T>
void sirt_step(T* x, const T* inv_col, const T* back, T lambda, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) x[j] += lambda * inv_col[j] * back[j];
}

/// The SART update: SIRT step with the nonnegativity clamp folded into the
/// same loop iteration (os_sart applies it per update, not per sweep).
template <typename T>
void sart_step(T* x, const T* inv_col, const T* back, T lambda, bool enforce_nonneg,
               std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) {
    x[j] += lambda * inv_col[j] * back[j];
    if (enforce_nonneg) x[j] = std::max(x[j], T(0));
  }
}

/// y += alpha * p.
template <typename T>
void axpy(T* y, T alpha, const T* p, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) y[j] += alpha * p[j];
}

/// y -= alpha * q.
template <typename T>
void axmy(T* y, T alpha, const T* q, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) y[i] -= alpha * q[i];
}

/// p = s + beta * p (the CG direction update).
template <typename T>
void xpay(T* p, const T* s, T beta, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) p[j] = s[j] + beta * p[j];
}

/// x = max(x, floor) (elementwise).
template <typename T>
void clamp_floor(T* x, T floor_v, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) x[j] = std::max(x[j], floor_v);
}

/// sum v[i]^2, accumulated in double in index order.
template <typename T>
double dot_self(const T* v, std::size_t len) {
  double s = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  return s;
}

/// sqrt(sum v[i]^2) — the residual norm both solver families report.
template <typename T>
double norm2(const T* v, std::size_t len) {
  return std::sqrt(dot_self(v, len));
}

/// sqrt(sum (b[i] - r[i])^2) with the difference taken in double (the
/// os_sart per-pass norm).
template <typename T>
double diff_norm2(const T* b, const T* r, std::size_t len) {
  double s = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const double d = static_cast<double>(b[i]) - static_cast<double>(r[i]);
    s += d * d;
  }
  return std::sqrt(s);
}

/// Column c of an interleaved multi-RHS vector into contiguous out.
template <typename T>
void gather_column(const T* multi, std::size_t len, std::size_t k, std::size_t c, T* out) {
  for (std::size_t i = 0; i < len; ++i) out[i] = multi[i * k + c];
}

/// Contiguous in back into column c of an interleaved multi-RHS vector.
template <typename T>
void scatter_column(const T* in, std::size_t len, std::size_t k, std::size_t c, T* multi) {
  for (std::size_t i = 0; i < len; ++i) multi[i * k + c] = in[i];
}

}  // namespace cscv::recon::colmath
