#include "tensor/ops.h"

#include <initializer_list>
#include <stdexcept>
#include <string>

#include "tensor/gemm_kernel.h"

namespace helcfl::tensor {

namespace {

/// One span argument: its name, its length and the length its call needs.
struct Operand {
  const char* name;
  std::size_t size;
  std::size_t need;
};

/// Throws std::invalid_argument naming `who` and the first operand whose
/// length is wrong, before the caller reads or writes anything.
void check_sizes(const char* who, std::initializer_list<Operand> operands) {
  for (const Operand& o : operands) {
    if (o.size != o.need) {
      throw std::invalid_argument(std::string(who) + ": " + o.name + " has " +
                                  std::to_string(o.size) + " floats, expected " +
                                  std::to_string(o.need));
    }
  }
}

/// check_sizes for C[m,n] = op(A)[m,k] op(B)[k,n]: a transpose changes
/// how a span is read, never how long it is.
void check_gemm(const char* who, std::size_t m, std::size_t k, std::size_t n,
                std::span<const float> a, std::span<const float> b,
                std::span<const float> c) {
  check_sizes(who,
              {{"a", a.size(), m * k}, {"b", b.size(), k * n}, {"c", c.size(), m * n}});
}

}  // namespace

void add_inplace(std::span<float> y, std::span<const float> x) {
  check_sizes("tensor::add_inplace", {{"x", x.size(), y.size()}});
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i];
}

void sub_inplace(std::span<float> y, std::span<const float> x) {
  check_sizes("tensor::sub_inplace", {{"x", x.size(), y.size()}});
  for (std::size_t i = 0; i < y.size(); ++i) y[i] -= x[i];
}

void scale_inplace(std::span<float> y, float s) {
  for (auto& v : y) v *= s;
}

void axpy(float a, std::span<const float> x, std::span<float> y) {
  check_sizes("tensor::axpy", {{"x", x.size(), y.size()}});
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += a * x[i];
}

double dot(std::span<const float> a, std::span<const float> b) {
  check_sizes("tensor::dot", {{"b", b.size(), a.size()}});
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += static_cast<double>(a[i]) * b[i];
  return sum;
}

double squared_norm(std::span<const float> a) { return dot(a, a); }

// Every GEMM variant below fills one detail::GemmArgs descriptor and hands
// it to detail::run_gemm, which jumps through the kernel resolved at
// startup (generic, AVX2+FMA, or AVX-512); a transposed A is a stride of the
// micro-kernel's read and a transposed B a gather order of the B pack, so
// all variants share one micro-kernel and one accumulation order (see
// ops.h header comment).

void gemm(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
          std::span<const float> b, std::span<float> c) {
  check_gemm("tensor::gemm", m, k, n, a, b, c);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data()};
  detail::run_gemm(args);
}

void gemm_accumulate(std::size_t m, std::size_t k, std::size_t n,
                     std::span<const float> a, std::span<const float> b,
                     std::span<float> c) {
  check_gemm("tensor::gemm_accumulate", m, k, n, a, b, c);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .accumulate = true};
  detail::run_gemm(args);
}

void gemm_bias_rows(std::size_t m, std::size_t k, std::size_t n,
                    std::span<const float> a, std::span<const float> b,
                    std::span<const float> bias, std::span<float> c) {
  check_gemm("tensor::gemm_bias_rows", m, k, n, a, b, c);
  check_sizes("tensor::gemm_bias_rows", {{"bias", bias.size(), m}});
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .bias = bias.data()};
  detail::run_gemm(args);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c) {
  check_gemm("tensor::gemm_at_b", m, k, n, a, b, c);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_a = true};
  detail::run_gemm(args);
}

void gemm_at_b_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) {
  check_gemm("tensor::gemm_at_b_accumulate", m, k, n, a, b, c);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_a = true, .accumulate = true};
  detail::run_gemm(args);
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, std::span<const float> a,
               std::span<const float> b, std::span<float> c) {
  check_gemm("tensor::gemm_a_bt", m, k, n, a, b, c);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_b = true};
  detail::run_gemm(args);
}

void gemm_a_bt_accumulate(std::size_t m, std::size_t k, std::size_t n,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) {
  check_gemm("tensor::gemm_a_bt_accumulate", m, k, n, a, b, c);
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .trans_b = true, .accumulate = true};
  detail::run_gemm(args);
}

void gemm_a_bt_bias_cols(std::size_t m, std::size_t k, std::size_t n,
                         std::span<const float> a, std::span<const float> b,
                         std::span<const float> bias, std::span<float> c) {
  check_gemm("tensor::gemm_a_bt_bias_cols", m, k, n, a, b, c);
  check_sizes("tensor::gemm_a_bt_bias_cols", {{"bias", bias.size(), n}});
  detail::GemmArgs args{.m = m, .k = k, .n = n, .a = a.data(), .b = b.data(),
                        .c = c.data(), .bias = bias.data(),
                        .bias_per_col = true, .trans_b = true};
  detail::run_gemm(args);
}

void set_kernel_threads(std::size_t n) {
  if (n != 1) {
    throw std::invalid_argument("tensor::set_kernel_threads: products run on the "
                                "calling thread; only 1 is accepted, got " +
                                std::to_string(n));
  }
}

std::string_view kernel_isa() { return detail::kernel_isa(); }

std::uint64_t scratch_realloc_count() { return detail::scratch_reallocs(); }

Tensor add(const Tensor& a, const Tensor& b) {
  require_same_shape(a.shape(), b.shape(), "tensor::add");
  Tensor out = a;
  add_inplace(out.data(), b.data());
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  require_same_shape(a.shape(), b.shape(), "tensor::sub");
  Tensor out = a;
  sub_inplace(out.data(), b.data());
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  scale_inplace(out.data(), s);
  return out;
}

}  // namespace helcfl::tensor
