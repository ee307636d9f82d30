// The synthetic CIFAR generator written pixel by pixel: every pixel
// evaluates its class's per-channel smooth field (a sum of three sines) at
// the circularly shifted grid point, then adds one noise draw.
//
// Kept as the *bitwise oracle* for make_synthetic_cifar (data/
// synthetic_cifar.h), which renders each class prototype once and only
// re-indexes it per sample.  It makes the same Rng draws in the same
// order; tests/test_synthetic_cifar.cpp requires every image float, every
// label and the Rng state after the call to agree bit for bit.  It does
// not validate its options.  Do not "optimize" it.
#pragma once

#include "data/synthetic_cifar.h"
#include "util/rng.h"

namespace helcfl::data {

TrainTestSplit reference_synthetic_cifar(const SyntheticCifarOptions& options,
                                         util::Rng& rng);

}  // namespace helcfl::data
