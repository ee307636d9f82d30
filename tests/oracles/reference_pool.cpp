#include "oracles/reference_pool.h"

#include <limits>
#include <vector>

namespace helcfl::nn {

using tensor::Shape;
using tensor::Tensor;

ReferencePoolResult reference_max_pool(const Tensor& x, std::size_t kernel,
                                       std::size_t stride, const Tensor& grad_output) {
  const Shape& s = x.shape();
  const std::size_t planes = s[0] * s[1];
  const std::size_t h_in = s[2];
  const std::size_t w_in = s[3];
  const std::size_t h_out = (h_in - kernel) / stride + 1;
  const std::size_t w_out = (w_in - kernel) / stride + 1;
  ReferencePoolResult result{Tensor(Shape{s[0], s[1], h_out, w_out}), Tensor(s)};
  std::vector<std::size_t> argmax(result.output.size());
  std::size_t o = 0;
  for (std::size_t plane = 0; plane < planes; ++plane) {
    for (std::size_t oy = 0; oy < h_out; ++oy) {
      for (std::size_t ox = 0; ox < w_out; ++ox, ++o) {
        const std::size_t y0 = oy * stride;
        const std::size_t x0 = ox * stride;
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_index = (plane * h_in + y0) * w_in + x0;
        for (std::size_t ky = 0; ky < kernel; ++ky) {
          for (std::size_t kx = 0; kx < kernel; ++kx) {
            const std::size_t flat = (plane * h_in + y0 + ky) * w_in + x0 + kx;
            if (x[flat] > best) {
              best = x[flat];
              best_index = flat;
            }
          }
        }
        result.output[o] = best;
        argmax[o] = best_index;
      }
    }
  }
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    result.grad_input[argmax[i]] += grad_output[i];
  }
  return result;
}

}  // namespace helcfl::nn
