// Kernel dispatch and scratch accounting (tensor/gemm_kernel.h).
#include "tensor/gemm_kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

namespace helcfl::tensor::detail {
namespace {

std::atomic<std::uint64_t> g_scratch_reallocs{0};

/// Picks the widest kernel the CPU supports, once per process.  The choice
/// is a pure function of CPUID and the environment, so every thread (and
/// every call) in a run executes the same kernel — results are bitwise
/// deterministic within a machine.  HELCFL_KERNEL_ISA *caps* the dispatch
/// (generic < avx2_fma < avx512): pinning "generic" gives cross-machine
/// bit-reproducibility, pinning "avx512" on a machine without AVX-512
/// degrades gracefully to the best kernel CPUID allows (docs/KERNELS.md).
const KernelVTable* resolve() {
  const char* pin_env = std::getenv("HELCFL_KERNEL_ISA");
  const std::string_view pin = pin_env == nullptr ? "" : pin_env;
  std::size_t cap = 2;  // 0 = generic, 1 = avx2_fma, 2 = avx512
  if (pin == "generic") {
    cap = 0;
  } else if (pin == "avx2_fma" || pin == "avx2") {
    cap = 1;
  } else if (pin == "avx512") {
    cap = 2;
  } else if (!pin.empty()) {
    std::fprintf(stderr,
                 "helcfl: ignoring unknown HELCFL_KERNEL_ISA '%s' "
                 "(expected generic|avx2_fma|avx512)\n",
                 pin_env);
  }
  const std::vector<const KernelVTable*>& kernels = supported_kernel_vtables();
  for (std::size_t i = kernels.size(); i-- > 0;) {
    const std::string_view isa = kernels[i]->isa;
    const std::size_t rank = isa == "avx512" ? 2 : isa == "avx2_fma" ? 1 : 0;
    if (rank <= cap) return kernels[i];
  }
  return kernels.front();
}

const KernelVTable& resolved() {
  static const KernelVTable* const vt = resolve();
  return *vt;
}

}  // namespace

const std::vector<const KernelVTable*>& supported_kernel_vtables() {
  static const std::vector<const KernelVTable*> kernels = [] {
    std::vector<const KernelVTable*> out{&gemm_generic_vtable()};
#if defined(HELCFL_HAVE_AVX2_KERNELS)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      out.push_back(&gemm_avx2_vtable());
    }
#endif
#if defined(HELCFL_HAVE_AVX512_KERNELS)
    if (__builtin_cpu_supports("avx512f")) out.push_back(&gemm_avx512_vtable());
#endif
    return out;
  }();
  return kernels;
}

const KernelVTable& active_kernel_vtable() { return resolved(); }

void run_gemm(const GemmArgs& args) { resolved().gemm(args); }

std::string_view kernel_isa() { return resolved().isa; }

std::uint64_t scratch_reallocs() {
  return g_scratch_reallocs.load(std::memory_order_relaxed);
}

void note_scratch_realloc() {
  g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace helcfl::tensor::detail
