#include "nn/models.h"

#include <cmath>

namespace signguard::nn {

Model make_mlp(std::size_t input_dim, std::size_t hidden_dim,
               std::size_t classes, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  // Leading Flatten lets the MLP consume [B, C, H, W] image batches
  // directly; it is the identity on already-flat [B, D] input.
  m.add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(input_dim, hidden_dim, rng, std::sqrt(2.0)))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(hidden_dim, classes, rng));
  return m;
}

Model make_small_cnn(std::size_t hw, std::size_t classes,
                     std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const std::size_t c1 = 6, c2 = 12;
  const std::size_t flat = c2 * (hw / 4) * (hw / 4);
  m.add(std::make_unique<Conv2d>(1, c1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Conv2d>(c1, c2, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(flat, 48, rng, std::sqrt(2.0)))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(48, classes, rng));
  return m;
}

Model make_color_cnn(std::size_t hw, std::size_t classes,
                     std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const std::size_t ch = 8;
  const std::size_t flat = ch * (hw / 4) * (hw / 4);
  m.add(std::make_unique<Conv2d>(3, ch, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<ResidualConvBlock>(ch, rng))
      .add(std::make_unique<MaxPool2>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Linear>(flat, 48, rng, std::sqrt(2.0)))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(48, classes, rng));
  return m;
}

Model make_text_rnn(std::size_t vocab, std::size_t embed_dim,
                    std::size_t hidden_dim, std::size_t classes,
                    std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  // Mean-pooled hidden states: topic evidence is spread across the whole
  // sequence, and pooling gives every token gradient signal (the bi-LSTM
  // in the paper's TextRNN reads both directions for the same reason).
  m.add(std::make_unique<Embedding>(vocab, embed_dim, rng))
      .add(std::make_unique<RnnTanh>(embed_dim, hidden_dim, rng))
      .add(std::make_unique<MeanPoolTime>())
      .add(std::make_unique<Linear>(hidden_dim, classes, rng));
  return m;
}

Model make_embed_bag_text(std::size_t vocab, std::size_t embed_dim,
                          std::size_t classes, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  m.add(std::make_unique<Embedding>(vocab, embed_dim, rng))
      .add(std::make_unique<MeanPoolTime>())
      .add(std::make_unique<Linear>(embed_dim, classes, rng));
  return m;
}

}  // namespace signguard::nn
