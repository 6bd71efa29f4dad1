#pragma once
// A federated client: owns an index shard into the shared training set and
// computes one mini-batch stochastic gradient per round (the paper's §V-C
// setting: one local iteration). The trainer loads the current global
// parameters into a scratch model before asking clients for gradients, so
// clients only run forward/backward.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/model.h"

namespace signguard::fl {

class Client {
 public:
  Client(const data::Dataset* dataset, std::vector<std::size_t> shard,
         std::uint64_t seed);

  // Mini-batch gradient at the parameters currently loaded in `model`,
  // written straight into `out` (a row of the round's GradientMatrix).
  // `flip_labels` implements the label-flip data-poisoning attack.
  // Weight decay is folded into the gradient.
  //
  // `client_momentum` > 0 enables the history-aided mode (Karimireddy et
  // al., ICML'21; the paper's refs [31]-[32]): the client keeps a local
  // buffer v <- beta*v + g across rounds and sends v instead of g, which
  // damps the round-to-round variance attackers like LIE hide behind.
  //
  // Thread-safe across *distinct* clients with distinct scratch models:
  // all mutable state (rng, momentum buffer, loss stats) is per-client,
  // so the trainer fans clients out over the pool.
  // Precondition: out.size() == model.parameter_count().
  void compute_gradient_into(std::span<float> out, nn::Model& model,
                             std::size_t batch_size, double weight_decay,
                             bool flip_labels, double client_momentum = 0.0);

  std::size_t shard_size() const { return shard_.size(); }
  const std::vector<std::size_t>& shard() const { return shard_; }

  // Running mean of training loss observed by this client (diagnostic).
  double average_loss() const;

  // Cross-round state snapshot/restore for crash-consistent checkpoints:
  // batch-sampling RNG cursor, client-momentum buffer, loss statistics.
  // The shard itself is NOT serialized — it is a pure function of the
  // trainer config seed and is rebuilt identically on resume.
  void serialize_state(common::ByteWriter& w) const;
  void restore_state(common::ByteReader& r);

 private:
  const data::Dataset* dataset_;
  std::vector<std::size_t> shard_;
  Rng rng_;
  std::vector<float> momentum_buffer_;  // only used with client momentum
  double loss_sum_ = 0.0;
  std::size_t loss_count_ = 0;
  // Per-batch scratch, reused across rounds: with the model's workspace
  // arena this makes a steady-state training batch allocation-free.
  std::vector<std::size_t> picks_, indices_;
  nn::Tensor batch_;
  std::vector<int> labels_;
  nn::LossResult loss_;
};

}  // namespace signguard::fl
