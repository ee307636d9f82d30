// Internal GEMM kernel layer (`helcfl::tensor::detail`).
//
// The public entry points in tensor/ops.h all lower to one descriptor,
// `GemmArgs`, dispatched to a register-blocked, cache-tiled driver
// (gemm_kernel.inl).  The driver is compiled once per instruction set the
// build supports — a portable baseline TU and, on x86-64 with GCC/Clang,
// AVX2+FMA and AVX-512 TUs built with per-file -m flags — and the fastest
// kernel the running CPU supports is resolved exactly once per process, so
// every call in a run (and every worker thread) executes the same
// instruction sequence.  run_gemm() runs the whole product on the calling
// thread; parallelism lives one level up, in the trainer's client pool.
//
// docs/KERNELS.md documents the tiling scheme, the accumulation policy,
// the B-panel layout, and the determinism contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace helcfl::tensor::detail {

/// A B operand read in place from images: the column panel
/// [channels*kernel^2, cnt*h_out*w_out] that im2col would unroll from `cnt`
/// zero-bordered samples.  Panel element (r, c), r = (ic, ky, kx) and
/// c = (s, y, x), is image[s*sample_stride + ic*hp*wp + (y*stride + ky)*wp
/// + x*stride + kx].
struct Im2colView {
  const float* image = nullptr;  ///< first sample [channels, hp, wp]
  std::size_t channels = 0, kernel = 0, stride = 1;
  std::size_t hp = 0, wp = 0, h_out = 0, w_out = 0;  ///< padded in, out extents
  std::size_t sample_stride = 0;  ///< floats from one sample to the next
};

/// One C = op(A)·op(B) [+ C] [+ bias] problem over row-major storage.
struct GemmArgs {
  std::size_t m = 0;  ///< rows of op(A) and C
  std::size_t k = 0;  ///< inner (reduction) dimension
  std::size_t n = 0;  ///< columns of op(B) and C
  const float* a = nullptr;  ///< [m,k], or [k,m] when trans_a
  const float* b = nullptr;  ///< [k,n], or [n,k] when trans_b
  float* c = nullptr;        ///< [m,n]; must not alias a or b
  /// Optional fused bias: [m] broadcast across each row, or [n] broadcast
  /// down each column when bias_per_col.  Requires !accumulate.
  const float* bias = nullptr;
  bool bias_per_col = false;
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;  ///< C += product instead of C = product
  /// When set, B is this view's panel (op(B) its transpose when trans_b)
  /// and `b` is ignored: packing reads through the im2col index map.
  const Im2colView* b_view = nullptr;
  /// When nonzero, k-blocks restart at every multiple of k_segment (still
  /// at most kc long), so one accumulate call over k = cnt*k_segment folds
  /// C exactly as cnt per-segment calls would.
  std::size_t k_segment = 0;
};

using GemmFn = void (*)(const GemmArgs&);
/// Packs the full op(B) of `args` into `dst`, whose capacity must be
/// packed_b_size(vt, k, n) floats.
using PackFn = void (*)(const GemmArgs&, float*);

/// Everything the engine knows about one compiled kernel.  `mr/nr` are the
/// micro-tile dimensions (nr fixes the B-panel layout), `kc` the k-block
/// length.
/// The driver packs B panels itself; `pack_b` runs the same per-block pack
/// (pack_b_block) over the full matrix, the one entry through which
/// test_pack_b's bitwise oracle and BM_PackB reach that layout.
struct KernelVTable {
  GemmFn gemm = nullptr;
  PackFn pack_b = nullptr;
  std::size_t mr = 0;
  std::size_t nr = 0;
  std::size_t kc = 0;
  std::string_view isa;
};

/// Floats needed to hold a full packed op(B) of shape [k, n] (zero-padded
/// kNr-column panels).
inline std::size_t packed_b_size(const KernelVTable& vt, std::size_t k,
                                 std::size_t n) {
  return ((n + vt.nr - 1) / vt.nr) * vt.nr * k;
}

/// Portable driver: 4x8 micro-tiles, whatever SIMD the base -march allows.
void gemm_generic(const GemmArgs& args);
void gemm_generic_pack_b(const GemmArgs& args, float* dst);
const KernelVTable& gemm_generic_vtable();

#if defined(HELCFL_HAVE_AVX2_KERNELS)
/// Same driver compiled with -mavx2 -mfma and 6x16 micro-tiles.
void gemm_avx2(const GemmArgs& args);
void gemm_avx2_pack_b(const GemmArgs& args, float* dst);
const KernelVTable& gemm_avx2_vtable();
#endif

#if defined(HELCFL_HAVE_AVX512_KERNELS)
/// Same driver compiled with -mavx512f and 12x32 micro-tiles.
void gemm_avx512(const GemmArgs& args);
void gemm_avx512_pack_b(const GemmArgs& args, float* dst);
const KernelVTable& gemm_avx512_vtable();
#endif

/// Every kernel this build compiled that the CPU can run, narrowest first
/// (generic, then avx2_fma, then avx512): the set active_kernel_vtable()
/// picks from before HELCFL_KERNEL_ISA caps it.  Tests walk it to check each
/// kernel's packing against a reference.
const std::vector<const KernelVTable*>& supported_kernel_vtables();

/// The kernel this process dispatches to.  Resolved once (thread-safe) from
/// CPUID; `HELCFL_KERNEL_ISA` in the environment *caps* the dispatch below
/// the CPUID ceiling (generic < avx2_fma < avx512), so pinning an ISA the
/// machine lacks degrades gracefully to the best supported one.
/// `HELCFL_KERNEL_ISA=generic` pins the portable kernel for cross-machine
/// bit-reproducibility.
const KernelVTable& active_kernel_vtable();

/// Runs one GEMM through the resolved kernel on the calling thread.
void run_gemm(const GemmArgs& args);

/// Name of the resolved kernel: "avx512", "avx2_fma" or "generic".
std::string_view kernel_isa();

/// Process-wide count of scratch-buffer growths (GEMM packing panels and
/// layer scratch), aggregated across every thread — the panels are
/// thread_local but the counter is one process-global atomic, so pool
/// workers' growths are visible here too.  In steady state — repeated calls
/// with shapes no larger than already seen on each thread — this must not
/// advance; tests and the micro benches assert it, and the trainer exports
/// it per round as the `kernel.scratch_reallocs` obs counter.
std::uint64_t scratch_reallocs();

/// Records one scratch growth (used by ensure_scratch and the nn layers).
void note_scratch_realloc();

/// Grows `buf` to at least `need` floats, counting the reallocation.
/// Never shrinks, so steady-state calls are allocation-free.
inline void ensure_scratch(std::vector<float>& buf, std::size_t need) {
  if (buf.size() < need) {
    buf.resize(need);
    note_scratch_realloc();
  }
}

}  // namespace helcfl::tensor::detail
