// The B-operand panel layout of the GEMM engine, written element by element
// from its definition (tensor/gemm_kernel.h, docs/KERNELS.md).
//
// Kept as the *bitwise oracle* for the engine's pack_b paths: packing is a
// pure rearrangement, so every kernel's vtable pack_b must produce exactly
// these floats, zero padding included.  Do not "optimize" it.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/gemm_kernel.h"

namespace helcfl::tensor::detail {

/// op(B)(kk, j) of `g`: B [k, n], its transpose when trans_b, or the
/// im2col view's panel element (or its transpose), from the view's formula.
float reference_op_b(const GemmArgs& g, std::size_t kk, std::size_t j);

/// The full packed op(B) a kernel with panel width `nr` and k-block `kc`
/// holds: k-blocks of at most kc rows restarting at every multiple of
/// g.k_segment, each a run of nr-column panels stored row by row, columns
/// past n zero.  packed_b_size() floats.
std::vector<float> reference_pack_b(const GemmArgs& g, std::size_t nr, std::size_t kc);

}  // namespace helcfl::tensor::detail
