#pragma once
// Per-model arena of reusable scratch Tensors for the forward/backward
// hot path. Every Model owns one Workspace, and the trainer's per-worker
// scratch models make it a per-worker arena: once shapes stabilize
// (after the first batch of each size), a training round performs zero
// steady-state heap allocation inside the NN stack.
//
// Ownership rules:
//  - activation(i) / grad_buffer(i) are stable, indexed slots the Model
//    uses for the layer-chain outputs and the backward ping-pong.
//  - take(shape) is a cursor arena for layer-internal scratch (conv
//    input planes and packs, the RNN's per-step buffers, residual-branch
//    temporaries). The cursor resets at the start of every forward pass
//    (begin_pass) and keeps advancing through backward, so a buffer
//    taken in forward — e.g. the residual block's pre-activation sum —
//    stays untouched until the *next* forward pass. A fixed pass
//    structure therefore maps every take() to the same slot each batch.
//  - Slots live in deques: references and pointers into them remain
//    valid as the arena grows, so layers may cache borrowed pointers to
//    activations/scratch between forward and backward instead of deep
//    copying inputs.

#include <cstddef>
#include <deque>
#include <initializer_list>
#include <span>

#include "nn/tensor.h"

namespace signguard::nn {

class Workspace {
 public:
  // Called by Model::forward before the layer chain runs; resets the
  // take() cursor (slot contents and capacity are retained).
  void begin_pass() { cursor_ = 0; }

  // Cursor checkpointing: mark() after forward and rewind() before each
  // repeated backward lets a caller replay the backward take() sequence
  // onto the same slots (the layer microbench needs this; the Model's
  // forward/backward pairing gets the same effect from begin_pass()).
  std::size_t mark() const { return cursor_; }
  void rewind(std::size_t cursor) { cursor_ = cursor; }

  // Next scratch slot, resized (capacity-reusing) to `shape`.
  Tensor& take(std::span<const std::size_t> shape);
  Tensor& take(std::initializer_list<std::size_t> shape) {
    return take(std::span<const std::size_t>(shape.begin(), shape.size()));
  }

  // Output slot of layer i (the activation chain).
  Tensor& activation(std::size_t i);

  // Backward ping-pong buffers (the Model alternates between two).
  Tensor& grad_buffer(std::size_t i);

  // Growth accounting for the reuse tests: slot count and total allocated
  // floats across every slot. Both must be flat across identical batches.
  std::size_t scratch_slots() const { return scratch_.size(); }
  std::size_t capacity_floats() const;

 private:
  std::deque<Tensor> scratch_, acts_, grads_;
  std::size_t cursor_ = 0;
};

}  // namespace signguard::nn
