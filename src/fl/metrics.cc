#include "fl/metrics.h"

#include <algorithm>
#include <cassert>

#include "common/serial.h"
#include "nn/loss.h"

namespace signguard::fl {

void SelectionStats::accumulate(std::span<const std::size_t> selected,
                                std::size_t n_byzantine,
                                std::size_t n_total) {
  assert(n_total > 0);
  const std::size_t n_honest = n_total - n_byzantine;
  std::size_t sel_honest = 0, sel_byz = 0;
  for (const std::size_t idx : selected) {
    if (idx < n_byzantine)
      ++sel_byz;  // convention: Byzantine clients occupy indices [0, m)
    else
      ++sel_honest;
  }
  const double h =
      n_honest > 0 ? double(sel_honest) / double(n_honest) : 0.0;
  const double b =
      n_byzantine > 0 ? double(sel_byz) / double(n_byzantine) : 0.0;
  // Running average.
  honest_rate = (honest_rate * double(rounds) + h) / double(rounds + 1);
  malicious_rate = (malicious_rate * double(rounds) + b) / double(rounds + 1);
  ++rounds;
}

RoundTally& RoundTally::operator+=(const RoundTally& o) {
  dropped += o.dropped;
  stragglers += o.stragglers;
  decode_rejects += o.decode_rejects;
  uplink_bytes += o.uplink_bytes;
  uplink_dense_bytes += o.uplink_dense_bytes;
  uplink_decoded_bytes += o.uplink_decoded_bytes;
  churned += o.churned;
  deadline_misses += o.deadline_misses;
  lost_uplinks += o.lost_uplinks;
  uplink_attempts += o.uplink_attempts;
  sim_time_ms += o.sim_time_ms;
  return *this;
}

void RoundTally::tally_fields(common::ByteIo& io) {
  io(dropped, stragglers, decode_rejects, uplink_bytes, uplink_dense_bytes,
     uplink_decoded_bytes, churned, deadline_misses, lost_uplinks,
     uplink_attempts, sim_time_ms);
}

double attack_impact(double baseline_accuracy, double achieved_accuracy) {
  return baseline_accuracy - achieved_accuracy;
}

double evaluate_accuracy(nn::Model& model, const data::Dataset& test,
                         std::size_t batch_size, std::size_t max_samples) {
  const std::size_t total = max_samples == 0
                                ? test.size()
                                : std::min(max_samples, test.size());
  assert(total > 0);
  std::size_t correct = 0;
  std::vector<std::size_t> indices;
  nn::Tensor batch;
  std::vector<int> labels;
  nn::LossResult r;
  for (std::size_t begin = 0; begin < total; begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, total);
    indices.resize(end - begin);
    for (std::size_t i = begin; i < end; ++i) indices[i - begin] = i;
    data::make_batch_into(test, indices, batch);
    data::batch_labels_into(test, indices, labels);
    const nn::Tensor& logits = model.forward(batch);
    nn::softmax_cross_entropy_into(logits, labels, r);
    correct += r.correct;
  }
  return 100.0 * double(correct) / double(total);
}

}  // namespace signguard::fl
