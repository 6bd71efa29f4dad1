#pragma once
// Model factories for the four workloads in the paper's evaluation
// (§V-A), scaled to this repo's synthetic datasets:
//   - Mlp        : fast dense classifier used for wide defense-grid sweeps
//   - SmallCnn   : 2 conv + 2 fc, the "CNN on MNIST/Fashion-MNIST" family
//   - ColorCnn   : 3-channel CNN with a residual block, the "ResNet-18 on
//                  CIFAR-10" family (≈50/50 positive/negative gradient sign
//                  balance, the property the paper calls out in Table II)
//   - TextRnn    : embedding + tanh RNN + mean-pool over time + linear
//                  head, the "TextRNN on AG-News" family
//   - EmbedBagText: embedding + mean-pool + linear, a cheap text model for
//                  large sweeps

#include <cstdint>

#include "nn/conv.h"
#include "nn/model.h"
#include "nn/rnn.h"

namespace signguard::nn {

Model make_mlp(std::size_t input_dim, std::size_t hidden_dim,
               std::size_t classes, std::uint64_t seed);

// Input [B, 1, hw, hw]; hw must be divisible by 4.
Model make_small_cnn(std::size_t hw, std::size_t classes, std::uint64_t seed);

// Input [B, 3, hw, hw]; hw must be divisible by 4.
Model make_color_cnn(std::size_t hw, std::size_t classes, std::uint64_t seed);

// Input [B, T] of token ids.
Model make_text_rnn(std::size_t vocab, std::size_t embed_dim,
                    std::size_t hidden_dim, std::size_t classes,
                    std::uint64_t seed);

// Input [B, T] of token ids.
Model make_embed_bag_text(std::size_t vocab, std::size_t embed_dim,
                          std::size_t classes, std::uint64_t seed);

}  // namespace signguard::nn
