// Kernel dispatch, row-sharded threading, and scratch accounting
// (tensor/gemm_kernel.h).
#include "tensor/gemm_kernel.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include "util/thread_pool.h"

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
  int cap = 2;  // 0 = generic, 1 = avx2_fma, 2 = avx512
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
#if defined(HELCFL_HAVE_AVX512_KERNELS)
  if (cap >= 2 && __builtin_cpu_supports("avx512f")) {
    return &gemm_avx512_vtable();
  }
#endif
#if defined(HELCFL_HAVE_AVX2_KERNELS)
  if (cap >= 1 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return &gemm_avx2_vtable();
  }
#endif
  (void)cap;
  return &gemm_generic_vtable();
}

const KernelVTable& resolved() {
  static const KernelVTable* const vt = resolve();
  return *vt;
}

/// Problems below this many flops (2*m*n*k) run single-threaded even when a
/// kernel pool exists: at ~10 GFLOP/s/core a 4M-flop GEMM takes ~0.4 ms,
/// roughly where fork/join overhead stops being noise.
constexpr std::size_t kParallelMinFlops = std::size_t{1} << 22;

/// The dedicated GEMM worker pool.  Separate from the trainer's round pool
/// on purpose: a GEMM issued *from* a pool worker must never block on that
/// same pool (deadlock), so run_gemm falls back to the calling thread
/// whenever it already runs on any util::ThreadPool worker — the two pools
/// therefore never nest, and "trainer threads × kernel threads"
/// oversubscription cannot happen.
struct KernelTeam {
  std::size_t threads = 1;
  std::unique_ptr<util::ThreadPool> pool;

  void configure(std::size_t n) {
    threads = util::ThreadPool::resolve_thread_count(n == 0 ? 0 : n);
    if (threads < 1) threads = 1;
    pool.reset();
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  }
};

std::size_t env_kernel_threads() {
  const char* env = std::getenv("HELCFL_KERNEL_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  const long parsed = std::strtol(env, nullptr, 10);
  if (parsed < 0) return 1;
  return util::ThreadPool::resolve_thread_count(
      static_cast<std::size_t>(parsed));
}

KernelTeam& team() {
  // Magic-static init is thread-safe; the environment default is applied
  // exactly once, before any caller can observe the team.
  static KernelTeam* const t = [] {
    auto* fresh = new KernelTeam;
    fresh->configure(env_kernel_threads());
    return fresh;
  }();
  return *t;
}

}  // namespace

const KernelVTable& active_kernel_vtable() { return resolved(); }

void run_gemm(const GemmArgs& args) {
  const KernelVTable& vt = resolved();
  KernelTeam& t = team();
  const std::size_t flops = 2 * args.m * args.n * args.k;
  if (t.pool == nullptr || flops < kParallelMinFlops ||
      util::ThreadPool::worker_index() != util::ThreadPool::npos) {
    vt.gemm(args);
    return;
  }
  // Shard C's rows at mc granularity: chunk boundaries land on the same kMc
  // block edges a sequential sweep visits, and every element's ascending-k
  // reduction stays whole on one thread — bitwise equal to 1-thread runs.
  // Chunk i runs on worker i, so one full-width call reaches every worker.
  const auto chunks =
      util::ThreadPool::partition_chunks(args.m, t.threads, vt.mc);
  if (chunks.size() <= 1) {
    vt.gemm(args);
    return;
  }
  std::vector<std::future<void>> joins;
  joins.reserve(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    GemmArgs shard = args;
    shard.row_begin = chunks[i].begin;
    shard.row_end = chunks[i].end;
    joins.push_back(t.pool->submit_to(i, [shard, &vt] { vt.gemm(shard); }));
  }
  // Join every shard before rethrowing so no worker touches freed operands.
  std::exception_ptr first_error;
  for (auto& join : joins) {
    try {
      join.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void set_kernel_threads(std::size_t n) { team().configure(n); }

std::size_t kernel_threads() { return team().threads; }

std::string_view kernel_isa() { return resolved().isa; }

std::uint64_t scratch_reallocs() {
  return g_scratch_reallocs.load(std::memory_order_relaxed);
}

void note_scratch_realloc() {
  g_scratch_reallocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace helcfl::tensor::detail
