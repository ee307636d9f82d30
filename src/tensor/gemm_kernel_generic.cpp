// Portable GEMM driver: compiled with the project's base flags only, so it
// runs (and produces identical bits) on any target the build supports.
// 4x8 micro-tiles keep the accumulator within the 16 XMM registers of
// baseline x86-64; other targets simply unroll scalar code.
#define HELCFL_KERNEL_FN gemm_generic
#define HELCFL_KERNEL_PACK_B_FN gemm_generic_pack_b
#define HELCFL_KERNEL_VTABLE_FN gemm_generic_vtable
#define HELCFL_KERNEL_ISA_NAME "generic"
#define HELCFL_KERNEL_MR 4
#define HELCFL_KERNEL_NR 8
#define HELCFL_KERNEL_VW 4
#include "tensor/gemm_kernel.inl"
