#include "nn/serialize.h"

#include <stdexcept>

namespace helcfl::nn {

std::size_t parameter_count(Layer& model) {
  std::size_t total = 0;
  for (const auto& p : model.params()) total += p.value.size();
  return total;
}

std::vector<float> extract_parameters(Layer& model) {
  std::vector<float> flat;
  flat.reserve(parameter_count(model));
  for (const auto& p : model.params()) {
    flat.insert(flat.end(), p.value.begin(), p.value.end());
  }
  return flat;
}

void load_parameters(Layer& model, std::span<const float> flat) {
  const std::size_t expected = parameter_count(model);
  if (flat.size() != expected) {
    throw std::invalid_argument("load_parameters: expected " +
                                std::to_string(expected) + " values, got " +
                                std::to_string(flat.size()));
  }
  std::size_t offset = 0;
  for (const auto& p : model.params()) {
    for (std::size_t i = 0; i < p.value.size(); ++i) p.value[i] = flat[offset + i];
    offset += p.value.size();
  }
}

std::vector<float> extract_gradients(Layer& model) {
  std::vector<float> flat;
  flat.reserve(parameter_count(model));
  for (const auto& p : model.params()) {
    flat.insert(flat.end(), p.grad.begin(), p.grad.end());
  }
  return flat;
}

std::size_t model_size_bits(Layer& model) { return parameter_count(model) * 32; }

std::size_t state_count(Layer& model) {
  std::size_t total = 0;
  for (const auto& s : model.state_buffers()) total += s.size();
  return total;
}

std::vector<float> extract_state(Layer& model) {
  std::vector<float> flat;
  flat.reserve(state_count(model));
  for (const auto& s : model.state_buffers()) {
    flat.insert(flat.end(), s.begin(), s.end());
  }
  return flat;
}

void load_state(Layer& model, std::span<const float> flat) {
  const std::size_t expected = state_count(model);
  if (flat.size() != expected) {
    throw std::invalid_argument("load_state: expected " + std::to_string(expected) +
                                " values, got " + std::to_string(flat.size()));
  }
  std::size_t offset = 0;
  for (const auto& s : model.state_buffers()) {
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = flat[offset + i];
    offset += s.size();
  }
}

}  // namespace helcfl::nn
