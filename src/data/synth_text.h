#pragma once
// Deterministic synthetic topic-classification text data — the offline
// stand-in for AG-News ("Substitutions" in docs/ARCHITECTURE.md). Each of
// the 4 classes owns a set of topic tokens; a document is a fixed-length
// token sequence mixing topic tokens with shared background vocabulary.

#include <cstdint>

#include "data/synth_image.h"  // TrainTest

namespace signguard::data {

struct SynthTextConfig {
  std::size_t classes = 4;
  std::size_t vocab = 1000;
  std::size_t seq_len = 16;
  std::size_t topic_words_per_class = 40;
  double topic_prob = 0.3;           // chance a token is a topic word
  std::size_t train_per_class = 750;
  std::size_t test_per_class = 250;
  std::uint64_t seed = 44;
};

TrainTest make_synth_text(const SynthTextConfig& cfg);

}  // namespace signguard::data
