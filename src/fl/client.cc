#include "fl/client.h"

#include <algorithm>
#include <cassert>

#include "nn/loss.h"
#include "nn/optimizer.h"

namespace signguard::fl {

Client::Client(const data::Dataset* dataset, std::vector<std::size_t> shard,
               std::uint64_t seed)
    : dataset_(dataset), shard_(std::move(shard)), rng_(seed) {
  assert(dataset_ != nullptr);
  assert(!shard_.empty());
}

void Client::compute_gradient_into(std::span<float> out, nn::Model& model,
                                   std::size_t batch_size,
                                   double weight_decay, bool flip_labels,
                                   double client_momentum) {
  const std::size_t bs = std::min(batch_size, shard_.size());
  rng_.sample_without_replacement_into(shard_.size(), bs, picks_);
  indices_.resize(bs);
  for (std::size_t i = 0; i < bs; ++i) indices_[i] = shard_[picks_[i]];

  data::make_batch_into(*dataset_, indices_, batch_);
  data::batch_labels_into(*dataset_, indices_, labels_, flip_labels);

  // Forward/backward run inside the model's workspace arena; the logits
  // reference and the layers' borrowed input pointers stay valid until
  // the next forward pass.
  const nn::Tensor& logits = model.forward(batch_);
  nn::softmax_cross_entropy_into(logits, labels_, loss_);
  model.backward(loss_.dlogits);

  loss_sum_ += loss_.loss;
  ++loss_count_;

  // Flat gradient plus weight decay straight into the caller's row, in
  // one pass over the layer blobs — no per-client flat copies.
  model.gradients_into(out, weight_decay);

  if (client_momentum > 0.0) {
    if (momentum_buffer_.size() != out.size())
      momentum_buffer_.assign(out.size(), 0.0f);
    for (std::size_t i = 0; i < out.size(); ++i) {
      momentum_buffer_[i] = static_cast<float>(
          client_momentum * momentum_buffer_[i] + double(out[i]));
      out[i] = momentum_buffer_[i];
    }
  }
}

double Client::average_loss() const {
  return loss_count_ > 0 ? loss_sum_ / double(loss_count_) : 0.0;
}

void Client::serialize_state(common::ByteWriter& w) const {
  w.str(rng_.state());
  w.floats(momentum_buffer_);
  w.f64(loss_sum_);
  w.u64(loss_count_);
}

void Client::restore_state(common::ByteReader& r) {
  rng_.set_state(r.str());
  momentum_buffer_ = r.floats();
  loss_sum_ = r.f64();
  loss_count_ = r.u64();
}

}  // namespace signguard::fl
