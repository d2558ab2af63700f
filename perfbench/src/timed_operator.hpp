// A LinearOperator decorator that records a span around every apply of the
// operator it wraps (a PlanOperator or a dist::ShardedOperator), so a solve
// can be split into operator time and the solver's own vector work.
#pragma once

#include <span>

#include "recon/operators.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedOperator final : public cscv::recon::LinearOperator<float> {
 public:
  TimedOperator(const cscv::recon::LinearOperator<float>& inner, const char* forward_span,
                const char* adjoint_span)
      : inner_(&inner), forward_span_(forward_span), adjoint_span_(adjoint_span) {}

  [[nodiscard]] cscv::sparse::index_t rows() const override { return inner_->rows(); }
  [[nodiscard]] cscv::sparse::index_t cols() const override { return inner_->cols(); }
  void forward(std::span<const float> x, std::span<float> y) const override {
    ScopedSpan s(forward_span_);
    inner_->forward(x, y);
  }
  void adjoint(std::span<const float> y, std::span<float> x) const override {
    ScopedSpan s(adjoint_span_);
    inner_->adjoint(y, x);
  }
  void forward_batch(std::span<const float> x, std::span<float> y, int num_rhs) const override {
    ScopedSpan s(forward_span_);
    inner_->forward_batch(x, y, num_rhs);
  }
  void adjoint_batch(std::span<const float> y, std::span<float> x, int num_rhs) const override {
    ScopedSpan s(adjoint_span_);
    inner_->adjoint_batch(y, x, num_rhs);
  }
  // The inner operator may specialize its normalizer sums (PlanOperator
  // does for batched plans), so they are forwarded, inside a span each.
  [[nodiscard]] cscv::util::AlignedVector<float> row_sums() const override {
    ScopedSpan s(forward_span_);
    return inner_->row_sums();
  }
  [[nodiscard]] cscv::util::AlignedVector<float> col_sums() const override {
    ScopedSpan s(adjoint_span_);
    return inner_->col_sums();
  }

 private:
  const cscv::recon::LinearOperator<float>* inner_;
  const char* forward_span_;
  const char* adjoint_span_;
};

}  // namespace perfbench
