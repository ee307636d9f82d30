// AVX2+FMA GEMM driver: same source as the generic TU, compiled with
// -mavx2 -mfma (per-file flags set in CMakeLists.txt) and a 6x16
// micro-tile — 12 YMM accumulators + 2 B vectors + 1 broadcast fits the
// 16-register file.  Selected at runtime by detail::active_kernel_vtable()
// only when CPUID reports both AVX2 and FMA.
#define HELCFL_KERNEL_FN gemm_avx2
#define HELCFL_KERNEL_PACK_B_FN gemm_avx2_pack_b
#define HELCFL_KERNEL_VTABLE_FN gemm_avx2_vtable
#define HELCFL_KERNEL_ISA_NAME "avx2_fma"
#define HELCFL_KERNEL_MR 6
#define HELCFL_KERNEL_NR 16
#define HELCFL_KERNEL_VW 8
#include "tensor/gemm_kernel.inl"
