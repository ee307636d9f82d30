// Determinism harness for the thread-parallel GEMM driver (docs/KERNELS.md).
// The contracts under test:
//
//  1. Every GEMM variant is bitwise identical for any kernel-thread count,
//     because row sharding never changes an element's ascending-k
//     accumulation order.
//  2. Dense and Conv2D forwards read their current weights: after an
//     optimizer step and after load_parameters they still equal the free
//     GEMM (Dense) and the explicit_conv oracle (Conv2D) bit for bit.
//  3. End to end: a federated training run produces bitwise-identical
//     weights and metrics CSV bytes whatever the kernel-thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "fl/client.h"
#include "fl/trainer.h"
#include "fl_fixtures.h"
#include "gradcheck.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "oracles/explicit_conv.h"
#include "sched/random_selection.h"
#include "sim/report.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace helcfl {
namespace {

/// Restores the process-wide kernel thread count on scope exit so tests
/// cannot leak it into each other.
struct KernelConfigGuard {
  std::size_t threads = tensor::kernel_threads();
  ~KernelConfigGuard() { tensor::set_kernel_threads(threads); }
};

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

std::vector<float> random_vec(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// One (m, k, n) problem with operands sized for every variant's layout.
struct Problem {
  std::size_t m, k, n;
  std::vector<float> a;      // [m, k]
  std::vector<float> at;     // [k, m] (gemm_at_b's A storage)
  std::vector<float> bt;     // [n, k] (gemm_a_bt's B storage)
  std::vector<float> b;      // [k, n]
  std::vector<float> bias_m; // per-row bias, length m
  std::vector<float> bias_n; // per-column bias, length n
};

Problem make_problem(std::size_t m, std::size_t k, std::size_t n,
                     std::uint64_t seed) {
  util::Rng rng(seed);
  Problem p{m, k, n, random_vec(m * k, rng), random_vec(k * m, rng),
            random_vec(n * k, rng), random_vec(k * n, rng),
            random_vec(m, rng), random_vec(n, rng)};
  return p;
}

/// Runs all eight GEMM entry points on `p` and concatenates the outputs, so
/// one vector comparison covers every variant bitwise.
std::vector<float> run_all_variants(const Problem& p) {
  const std::size_t mn = p.m * p.n;
  std::vector<float> out;
  out.reserve(8 * mn);
  std::vector<float> c(mn);

  tensor::gemm(p.m, p.k, p.n, p.a, p.b, c);
  out.insert(out.end(), c.begin(), c.end());

  // Seed C with a deterministic pattern before the accumulate variants.
  for (std::size_t i = 0; i < mn; ++i) c[i] = static_cast<float>(i % 7) * 0.25F;
  tensor::gemm_accumulate(p.m, p.k, p.n, p.a, p.b, c);
  out.insert(out.end(), c.begin(), c.end());

  tensor::gemm_bias_rows(p.m, p.k, p.n, p.a, p.b, p.bias_m, c);
  out.insert(out.end(), c.begin(), c.end());

  tensor::gemm_at_b(p.m, p.k, p.n, p.at, p.b, c);
  out.insert(out.end(), c.begin(), c.end());

  for (std::size_t i = 0; i < mn; ++i) c[i] = static_cast<float>(i % 5) * -0.5F;
  tensor::gemm_at_b_accumulate(p.m, p.k, p.n, p.at, p.b, c);
  out.insert(out.end(), c.begin(), c.end());

  tensor::gemm_a_bt(p.m, p.k, p.n, p.a, p.bt, c);
  out.insert(out.end(), c.begin(), c.end());

  for (std::size_t i = 0; i < mn; ++i) c[i] = static_cast<float>(i % 3) * 1.5F;
  tensor::gemm_a_bt_accumulate(p.m, p.k, p.n, p.a, p.bt, c);
  out.insert(out.end(), c.begin(), c.end());

  tensor::gemm_a_bt_bias_cols(p.m, p.k, p.n, p.a, p.bt, p.bias_n, c);
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

TEST(KernelParallel, AllVariantsAreBitwiseIdenticalAcrossThreadCounts) {
  KernelConfigGuard guard;
  // Shapes straddling the tile geometry: kMc = 96 row blocks, kKc = 256
  // k-blocks, and ragged edges in every dimension.
  const std::vector<Problem> problems = {
      make_problem(257, 301, 190, 0xA1),  // > 2 row chunks, ragged everywhere
      make_problem(512, 96, 33, 0xA2),    // row count divides kMc exactly
      make_problem(96, 300, 96, 0xA3),    // single row block: 1 chunk at any n
      make_problem(7, 5, 3, 0xA4),        // smaller than one micro-tile
  };
  for (const Problem& p : problems) {
    tensor::set_kernel_threads(1);
    const std::vector<float> reference = run_all_variants(p);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      tensor::set_kernel_threads(threads);
      EXPECT_EQ(run_all_variants(p), reference)
          << "m=" << p.m << " k=" << p.k << " n=" << p.n
          << " threads=" << threads;
    }
  }
}

TEST(KernelParallel, DenseForwardEqualsFreeGemmAfterStepAndLoad) {
  KernelConfigGuard guard;
  tensor::set_kernel_threads(1);
  util::Rng rng(0xC1);
  nn::Dense layer(23, 17, rng);
  const tensor::Tensor x = testing::random_input({5, 23}, 0xC2);
  // y = x W^T + b through the public GEMM, on the layer's current weights.
  const auto free_gemm = [&] {
    const std::vector<nn::ParamRef> p = layer.params();
    std::vector<float> y(5 * 17);
    tensor::gemm_a_bt_bias_cols(5, 23, 17, x.data(), p[0].value, p[1].value, y);
    return y;
  };
  EXPECT_EQ(bits(layer.forward(x, false).data()), bits(free_gemm())) << "initial";

  const tensor::Tensor dy = testing::random_input({5, 17}, 0xC3);
  layer.zero_grad();
  const tensor::Tensor before = layer.forward(x, /*training=*/true);
  layer.backward(dy);
  nn::Sgd sgd({.learning_rate = 0.1F});
  sgd.step(layer.params());
  const tensor::Tensor stepped = layer.forward(x, false);
  EXPECT_NE(bits(stepped.data()), bits(before.data())) << "the step moved no output";
  EXPECT_EQ(bits(stepped.data()), bits(free_gemm())) << "after an Sgd step";

  std::vector<float> params = nn::extract_parameters(layer);
  for (float& v : params) v += 0.125F;
  nn::load_parameters(layer, params);
  EXPECT_EQ(bits(layer.forward(x, false).data()), bits(free_gemm()))
      << "after load_parameters";
}

TEST(KernelParallel, Conv2dForwardEqualsOracleAfterStepAndLoad) {
  KernelConfigGuard guard;
  tensor::set_kernel_threads(1);
  util::Rng rng(0xC4);
  nn::Sequential model;
  model.emplace<nn::Conv2D>(3, 8, 3, 1, 1, rng);
  const tensor::Tensor x = testing::random_input({2, 3, 9, 9}, 0xC5);
  const tensor::Tensor dy = testing::random_input({2, 8, 9, 9}, 0xC6);
  // The explicit-panel forward on the model's current weights.
  const auto oracle = [&] {
    const std::vector<nn::ParamRef> p = model.params();
    return nn::explicit_conv({3, 8, 3, 1, 1}, p[0].value, p[1].value, x, dy).output;
  };
  EXPECT_EQ(bits(model.forward(x, false).data()), bits(oracle().data())) << "initial";

  model.zero_grad();
  const tensor::Tensor before = model.forward(x, /*training=*/true);
  model.backward(dy);
  nn::Sgd sgd({.learning_rate = 0.1F});
  sgd.step(model.params());
  const tensor::Tensor stepped = model.forward(x, false);
  EXPECT_NE(bits(stepped.data()), bits(before.data())) << "the step moved no output";
  EXPECT_EQ(bits(stepped.data()), bits(oracle().data())) << "after an Sgd step";

  std::vector<float> params = nn::extract_parameters(model);
  for (float& v : params) v += 0.125F;
  nn::load_parameters(model, params);
  EXPECT_EQ(bits(model.forward(x, false).data()), bits(oracle().data()))
      << "after load_parameters";
}

TEST(KernelParallel, CnnTrainStepIsBitwiseInvariantAcrossThreads) {
  KernelConfigGuard guard;
  const data::TrainTestSplit split = testing::tiny_split(64, 16, 90);
  std::vector<std::size_t> indices(32);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const data::Batch batch = split.train.gather(indices);

  const auto run_step = [&](std::size_t threads) {
    tensor::set_kernel_threads(threads);
    util::Rng model_rng(91);
    auto model = nn::make_small_cnn(split.train.spec(), 10, model_rng);
    const std::vector<float> init = nn::extract_parameters(*model);
    fl::ClientOptions options;
    options.learning_rate = 0.05F;
    options.local_steps = 2;
    options.batch_size = 16;
    util::Rng rng(92);
    return fl::local_update(*model, init, batch, options, rng).weights;
  };

  EXPECT_EQ(run_step(4), run_step(1)) << "threads=4 vs threads=1";
}

TEST(KernelParallel, ScratchStopsGrowingInSteadyStateUnderFourThreads) {
  KernelConfigGuard guard;
  tensor::set_kernel_threads(4);
  util::Rng rng(0xD1);
  const std::size_t m = 384, k = 128, n = 64;
  const std::vector<float> a = random_vec(m * k, rng);
  const std::vector<float> b = random_vec(k * n, rng);
  std::vector<float> c(m * n);
  // Warm every pool worker's thread-local packing scratch: each run shards
  // into 4 row chunks, so a handful of runs reaches all four workers.
  for (int i = 0; i < 16; ++i) tensor::gemm(m, k, n, a, b, c);
  const std::uint64_t before = tensor::scratch_realloc_count();
  for (int i = 0; i < 8; ++i) tensor::gemm(m, k, n, a, b, c);
  EXPECT_EQ(tensor::scratch_realloc_count(), before)
      << "steady-state GEMMs must not grow any worker's scratch";
}

/// The trainer's call pattern — a batch-256 evaluation, a batch-40 training
/// step, then evaluation again — sizes every layer's chunked-conv scratch
/// in the first cycle; later cycles must allocate nothing.
TEST(KernelParallel, EvalTrainEvalCycleStopsGrowingScratch) {
  KernelConfigGuard guard;
  tensor::set_kernel_threads(1);
  const nn::ImageSpec spec{3, 8, 8};
  for (const nn::ModelKind kind :
       {nn::ModelKind::kSmallCnn, nn::ModelKind::kMiniSqueezeNet}) {
    SCOPED_TRACE(nn::model_kind_name(kind));
    util::Rng rng(0xE1);
    auto model = nn::make_model(kind, spec, 10, rng);
    tensor::Tensor eval_x(tensor::Shape{256, 3, 8, 8});
    eval_x.fill_normal(rng, 0.0F, 1.0F);
    tensor::Tensor train_x(tensor::Shape{40, 3, 8, 8});
    train_x.fill_normal(rng, 0.0F, 1.0F);
    std::vector<std::int32_t> labels(40);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::int32_t>(i % 10);
    }
    nn::Sgd sgd({.learning_rate = 0.05F});
    const auto cycle = [&] {
      (void)model->forward(eval_x, false);
      model->zero_grad();
      const tensor::Tensor logits = model->forward(train_x, true);
      const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
      model->backward(loss.grad_logits);
      sgd.step(model->params());
      (void)model->forward(eval_x, false);
    };
    cycle();
    const std::uint64_t before = tensor::scratch_realloc_count();
    for (int i = 0; i < 3; ++i) cycle();
    EXPECT_EQ(tensor::scratch_realloc_count(), before)
        << "eval/train/eval cycles must reuse the first cycle's scratch";
  }
}

/// End-to-end: a full federated run is bitwise invariant to the kernel
/// thread count, down to the metrics CSV bytes.
TEST(KernelParallel, TrainerRunIsBitwiseInvariantAcrossKernelThreads) {
  KernelConfigGuard guard;

  const data::TrainTestSplit split = testing::tiny_split(200, 60, 93);
  util::Rng prng(94);
  constexpr std::size_t kUsers = 6;
  const data::Partition partition =
      data::iid_partition(split.train.size(), kUsers, prng);
  std::vector<mec::Device> devices =
      testing::linear_fleet(kUsers, partition[0].size());
  for (std::size_t i = 0; i < kUsers; ++i) {
    devices[i].num_samples = partition[i].size();
  }

  const auto run_with_kernel_threads = [&](std::size_t threads) {
    tensor::set_kernel_threads(threads);
    util::Rng model_rng(95);
    auto model = nn::make_mlp(split.train.spec(), 16, 10, model_rng);
    util::Rng srng(96);
    sched::RandomSelection strategy(0.5, srng);
    fl::TrainerOptions options;
    options.max_rounds = 4;
    options.client.learning_rate = 0.1F;
    options.client.local_steps = 2;
    options.client.batch_size = 16;
    options.model_size_bits = 4e6;
    fl::FederatedTrainer trainer(*model, split.train, split.test, partition,
                                 devices, testing::paper_channel(), strategy,
                                 options);
    const fl::TrainingHistory history = trainer.run();

    const std::string path = ::testing::TempDir() + "kernel_threads_" +
                             std::to_string(threads) + ".csv";
    sim::write_history_csv(path, history);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream csv;
    csv << in.rdbuf();
    std::remove(path.c_str());
    return std::pair(nn::extract_parameters(*model), csv.str());
  };

  const auto [weights1, csv1] = run_with_kernel_threads(1);
  const auto [weights4, csv4] = run_with_kernel_threads(4);
  EXPECT_EQ(weights1, weights4);
  EXPECT_EQ(csv1, csv4);
  EXPECT_FALSE(csv1.empty());
}

}  // namespace
}  // namespace helcfl
