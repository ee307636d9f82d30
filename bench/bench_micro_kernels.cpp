// Micro-benchmarks (M1, DESIGN.md) of the numerical kernels behind the
// training substrate: GEMM variants, convolution forward/backward, dense
// layers, softmax cross-entropy, and a full MLP/CNN training step.
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "nn/serialize.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace {

using namespace helcfl;
using tensor::Shape;
using tensor::Tensor;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  tensor::set_kernel_threads(threads);
  util::Rng rng(1);
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  std::vector<float> c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::gemm(n, n, n, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  const auto flops = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(2 * n * n * n);
  state.SetItemsProcessed(flops);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["flops"] = benchmark::Counter(static_cast<double>(flops),
                                               benchmark::Counter::kIsRate);
  tensor::set_kernel_threads(1);
}
// The 512-point sweep is the scaling curve CI records (1/2/4 kernel
// threads); smaller sizes stay single-threaded (below the parallel
// threshold anyway) to track per-core kernel regressions.  UseRealTime:
// the sharded work runs on pool threads, which the default CPU-time
// pacing cannot see.
BENCHMARK(BM_Gemm)
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->UseRealTime();

// Products with A transposed (gemm_at_b) at training-step shapes:
//  * conv2_igrad: Conv2D's input gradient, grad_col = W^T * panel, at
//    small_cnn conv2's shape (ckk = 72, out_ch = 16, one 256-column chunk):
//    one 16-step k-block per tile, so storing the tiles is half the work.
//  * dense1_wgrad: the MLP's first Dense weight gradient, dW = dY^T * X, at
//    async-mlp's batch of 20 (out 64, in 192): A and B are both read in
//    place, and m = 64 leaves a partial row tile on every kernel.
struct GemmShape {
  std::size_t m, k, n;
};

void BM_Gemm(benchmark::State& state, GemmShape shape) {
  util::Rng rng(13);
  std::vector<float> a(shape.k * shape.m);
  std::vector<float> b(shape.k * shape.n);
  std::vector<float> c(shape.m * shape.n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::gemm_at_b(shape.m, shape.k, shape.n, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  const auto flops = static_cast<std::int64_t>(state.iterations()) *
                     static_cast<std::int64_t>(2 * shape.m * shape.n * shape.k);
  state.SetItemsProcessed(flops);
  state.counters["flops"] = benchmark::Counter(static_cast<double>(flops),
                                               benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_Gemm, conv2_igrad_72x16x256, GemmShape{72, 16, 256});
BENCHMARK_CAPTURE(BM_Gemm, dense1_wgrad_64x20x192, GemmShape{64, 20, 192});

void BM_GemmABt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  std::vector<float> c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::gemm_a_bt(n, n, n, a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmABt)->Arg(64);

void BM_DenseForward(benchmark::State& state) {
  util::Rng rng(3);
  nn::Dense layer(192, 64, rng);
  Tensor x(Shape{static_cast<std::size_t>(state.range(0)), 192});
  x.fill_normal(rng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = layer.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// 20 is async-mlp's batch.
BENCHMARK(BM_DenseForward)->Arg(1)->Arg(20)->Arg(32)->Arg(128);

void BM_DenseTrainStep(benchmark::State& state) {
  util::Rng rng(4);
  nn::Dense layer(192, 64, rng);
  Tensor x(Shape{32, 192});
  x.fill_normal(rng, 0.0F, 1.0F);
  Tensor dy(Shape{32, 64});
  dy.fill(0.01F);
  for (auto _ : state) {
    layer.zero_grad();
    Tensor y = layer.forward(x, true);
    Tensor dx = layer.backward(dy);
    benchmark::DoNotOptimize(dx.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_DenseTrainStep);

void BM_Conv2DForward(benchmark::State& state) {
  util::Rng rng(5);
  nn::Conv2D conv(3, 8, 3, 1, 1, rng);
  Tensor x(Shape{static_cast<std::size_t>(state.range(0)), 3, 8, 8});
  x.fill_normal(rng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Conv2DForward)->Arg(1)->Arg(32);

struct ConvShape {
  std::size_t in_ch, out_ch, extent, batch;
  bool params_only = false;  // accumulate_grads(): no input gradient
};

void BM_Conv2DTrainStep(benchmark::State& state, ConvShape shape) {
  util::Rng rng(6);
  nn::Conv2D conv(shape.in_ch, shape.out_ch, 3, 1, 1, rng);
  Tensor x(Shape{shape.batch, shape.in_ch, shape.extent, shape.extent});
  x.fill_normal(rng, 0.0F, 1.0F);
  Tensor dy(Shape{shape.batch, shape.out_ch, shape.extent, shape.extent});
  dy.fill(0.01F);
  // Warm-up sizes the layer scratch; the timed loop must then run
  // allocation-free (the no-alloc steady-state contract, docs/KERNELS.md).
  conv.zero_grad();
  conv.backward(conv.forward(x, true));
  const std::uint64_t reallocs_before = tensor::scratch_realloc_count();
  for (auto _ : state) {
    conv.zero_grad();
    Tensor y = conv.forward(x, true);
    if (shape.params_only) {
      conv.accumulate_grads(dy);
    } else {
      Tensor dx = conv.backward(dy);
      benchmark::DoNotOptimize(dx.data().data());
    }
    benchmark::DoNotOptimize(y.data().data());
  }
  if (tensor::scratch_realloc_count() != reallocs_before) {
    state.SkipWithError("scratch grew during steady-state Conv2D training");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.batch));
}
void BM_Conv2DTrainStep(benchmark::State& state) {
  BM_Conv2DTrainStep(state, {3, 8, 8, 8});
}
BENCHMARK(BM_Conv2DTrainStep);
// small_cnn's two convs at the trainer's batch of 40 (one client's data):
// 4 samples per lowered chunk for the 8x8 map, 16 for the 4x4 map.
BENCHMARK_CAPTURE(BM_Conv2DTrainStep, small_cnn_conv1_b40, ConvShape{3, 8, 8, 40});
BENCHMARK_CAPTURE(BM_Conv2DTrainStep, small_cnn_conv2_b40, ConvShape{8, 16, 4, 40});
// conv1 as the client trains it: the first layer's input gradient is never
// read, so Sequential::accumulate_grads skips it.
BENCHMARK_CAPTURE(BM_Conv2DTrainStep, small_cnn_conv1_b40_params_only,
                  ConvShape{3, 8, 8, 40, true});

// small_cnn's pointwise layers after conv1 at the trainer's batch of 40:
// one training forward and one backward over [40, 8, 8, 8].
template <typename L>
void BM_PointwiseStep(benchmark::State& state, L& layer) {
  util::Rng rng(14);
  Tensor x(Shape{40, 8, 8, 8});
  x.fill_normal(rng, 0.0F, 1.0F);
  Tensor dy(layer.forward(x, false).shape());
  dy.fill_normal(rng, 0.0F, 1.0F);
  for (auto _ : state) {
    Tensor y = layer.forward(x, true);
    Tensor dx = layer.backward(dy);
    benchmark::DoNotOptimize(y.data().data());
    benchmark::DoNotOptimize(dx.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
void BM_ReLUStep(benchmark::State& state) {
  nn::ReLU relu;
  BM_PointwiseStep(state, relu);
}
void BM_MaxPool2DStep(benchmark::State& state) {
  nn::MaxPool2D pool(2, 2);
  BM_PointwiseStep(state, pool);
}
BENCHMARK(BM_ReLUStep)->Name("BM_ReLUStep/small_cnn_b40");
BENCHMARK(BM_MaxPool2DStep)->Name("BM_MaxPool2DStep/small_cnn_b40");

// One full-matrix B pack through the active kernel (vtable pack_b): the
// data movement the engine does before every product on that operand.
struct PackShape {
  std::size_t k, n;
  bool trans_b;
  // An im2col view when extent > 0: small_cnn's padded chunk of `cnt`
  // samples, `in_ch` channels, extent x extent maps, 3x3 kernel, pad 1.
  std::size_t in_ch = 0, extent = 0, cnt = 0;
};

void BM_PackB(benchmark::State& state, PackShape shape) {
  const tensor::detail::KernelVTable& vt = tensor::detail::active_kernel_vtable();
  const std::size_t hp = shape.extent + 2;
  const std::size_t plane = shape.in_ch * hp * hp;
  std::vector<float> src(shape.extent > 0 ? shape.cnt * plane : shape.k * shape.n);
  util::Rng rng(11);
  for (auto& v : src) v = static_cast<float>(rng.normal());
  const tensor::detail::Im2colView view{src.data(), shape.in_ch, 3, 1, hp, hp,
                                        shape.extent, shape.extent, plane};
  tensor::detail::GemmArgs args{.k = shape.k, .n = shape.n, .b = src.data(),
                                .trans_b = shape.trans_b};
  if (shape.extent > 0) {
    args.b_view = &view;
    // The weight gradient restarts k-blocks per sample, as Conv2D does.
    if (shape.trans_b) args.k_segment = shape.extent * shape.extent;
  }
  std::vector<float> dst(tensor::detail::packed_b_size(vt, shape.k, shape.n));
  for (auto _ : state) {
    vt.pack_b(args, dst.data());
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shape.k * shape.n));
}
// Dense(192 -> 64)'s W^T, repacked after every SGD step.
BENCHMARK_CAPTURE(BM_PackB, dense_wt_64x192, PackShape{192, 64, true});
// small_cnn conv1 (3 -> 8, 8x8 map, 4 samples a chunk) and conv2 (8 -> 16,
// 4x4 map, 16 samples a chunk): the forward view [C*9, 256] and the
// weight-gradient view, its transpose.
BENCHMARK_CAPTURE(BM_PackB, conv1_forward_view, PackShape{27, 256, false, 3, 8, 4});
BENCHMARK_CAPTURE(BM_PackB, conv1_wgrad_view, PackShape{256, 27, true, 3, 8, 4});
BENCHMARK_CAPTURE(BM_PackB, conv2_forward_view, PackShape{72, 256, false, 8, 4, 16});
BENCHMARK_CAPTURE(BM_PackB, conv2_wgrad_view, PackShape{256, 72, true, 8, 4, 16});

void BM_SgdStep(benchmark::State& state) {
  // One local step's update of the async-mlp model's parameters, with the
  // paper config's client momentum.
  util::Rng rng(12);
  auto model = nn::make_mlp(nn::ImageSpec{3, 8, 8}, 64, 10, rng);
  for (const nn::ParamRef& p : model->params()) {
    for (float& g : p.grad) g = static_cast<float>(rng.normal(0.0, 0.01));
  }
  nn::Sgd sgd({.learning_rate = 0.02F, .momentum = 0.5F});
  const std::vector<nn::ParamRef> params = model->params();
  const std::size_t n_params = nn::parameter_count(*model);
  for (auto _ : state) {
    sgd.step(params);
    benchmark::DoNotOptimize(params[0].value.data());
    benchmark::ClobberMemory();
  }
  state.counters["params"] = static_cast<double>(n_params);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_params));
}
BENCHMARK(BM_SgdStep);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  util::Rng rng(7);
  Tensor logits(Shape{static_cast<std::size_t>(state.range(0)), 10});
  logits.fill_normal(rng, 0.0F, 2.0F);
  std::vector<std::int32_t> labels(state.range(0));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 10);
  }
  for (auto _ : state) {
    nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    benchmark::DoNotOptimize(loss.loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SoftmaxCrossEntropy)->Arg(32)->Arg(256);

void BM_ModelTrainStep(benchmark::State& state) {
  // One full-batch client update of the default experiment model on a
  // 40-sample local dataset — the per-client unit of Algorithm 1 line 7.
  util::Rng rng(8);
  const nn::ImageSpec spec{3, 8, 8};
  const auto kind = static_cast<nn::ModelKind>(state.range(0));
  auto model = nn::make_model(kind, spec, 10, rng);
  Tensor x(Shape{40, 3, 8, 8});
  x.fill_normal(rng, 0.0F, 1.0F);
  std::vector<std::int32_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) labels[i] = static_cast<std::int32_t>(i % 10);
  nn::Sgd sgd({.learning_rate = 0.05F});
  for (auto _ : state) {
    model->zero_grad();
    Tensor logits = model->forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    model->accumulate_grads(loss.grad_logits);  // as fl::local_update does
    sgd.step(model->params());
    benchmark::DoNotOptimize(loss.loss);
  }
  state.SetLabel(nn::model_kind_name(kind));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 40);
}
BENCHMARK(BM_ModelTrainStep)
    ->Arg(static_cast<int>(nn::ModelKind::kMlp))
    ->Arg(static_cast<int>(nn::ModelKind::kSmallCnn))
    ->Arg(static_cast<int>(nn::ModelKind::kMiniSqueezeNet));

void BM_RoundForward(benchmark::State& state) {
  // The FedAvg inner loop in miniature: every selected client forwards the
  // same global model.  With prepacking (arg = 1) the Dense weight panels
  // are packed once and reused by all clients; arg = 0 simulates the naive
  // pack-per-client alternative by dirtying the panels before each client,
  // so the delta between the two rows is the per-round packing amortization.
  const bool prepack = state.range(0) != 0;
  const bool saved_prepack = tensor::weight_prepack_enabled();
  tensor::set_weight_prepack(true);
  util::Rng rng(10);
  nn::Sequential model;
  model.emplace<nn::Dense>(256, 256, rng);
  model.emplace<nn::Dense>(256, 256, rng);
  model.emplace<nn::Dense>(256, 10, rng);
  constexpr std::size_t kClients = 32;
  constexpr std::size_t kBatch = 4;
  Tensor x(Shape{kBatch, 256});
  x.fill_normal(rng, 0.0F, 1.0F);
  for (auto _ : state) {
    for (std::size_t client = 0; client < kClients; ++client) {
      if (!prepack) model.mark_weights_dirty();
      Tensor y = model.forward(x, false);
      benchmark::DoNotOptimize(y.data().data());
    }
  }
  state.SetLabel(prepack ? "prepack" : "repack_per_client");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kClients * kBatch));
  tensor::set_weight_prepack(saved_prepack);
}
BENCHMARK(BM_RoundForward)->Arg(0)->Arg(1);

void BM_ExtractLoadParameters(benchmark::State& state) {
  util::Rng rng(9);
  const nn::ImageSpec spec{3, 8, 8};
  auto model = nn::make_mlp(spec, 64, 10, rng);
  std::size_t n_params = 0;
  for (auto _ : state) {
    std::vector<float> flat = nn::extract_parameters(*model);
    nn::load_parameters(*model, flat);
    n_params = flat.size();
    benchmark::DoNotOptimize(flat.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n_params));
}
BENCHMARK(BM_ExtractLoadParameters);

}  // namespace

HELCFL_BENCH_JSON_MAIN()
