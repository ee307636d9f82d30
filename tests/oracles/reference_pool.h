// Max pooling one window at a time, written from its definition
// (nn/pool.h).
//
// Kept as the *bitwise oracle* for MaxPool2D's vector path: every window
// scans its taps in (ky, kx) order from -inf with a strict >, so ties keep
// the first maximum, NaN never wins and a window of only -inf/NaN outputs
// -inf and routes its gradient to its own first element.
// tests/test_pool.cpp requires bit-for-bit agreement.  Do not "optimize"
// it.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace helcfl::nn {

struct ReferencePoolResult {
  tensor::Tensor output;      ///< [N, C, H_out, W_out]
  tensor::Tensor grad_input;  ///< grad_output routed to each window's argmax
};

/// MaxPool2D(kernel, stride) on `x` [N, C, H, W], and the input gradient of
/// `grad_output` (shaped like the output), added in output order.
ReferencePoolResult reference_max_pool(const tensor::Tensor& x, std::size_t kernel,
                                       std::size_t stride,
                                       const tensor::Tensor& grad_output);

}  // namespace helcfl::nn
