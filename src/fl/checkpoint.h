#pragma once
// Crash-consistent trainer checkpoints.
//
// File format (consumed by the same build that wrote it; see
// common/serial.h for the byte conventions):
//
//   offset  size  field
//   0       4     magic "SGCK"
//   4       4     format version (u32, currently 3)
//   8       8     payload length (u64)
//   16      8     XXH64 (seed 0) of the payload bytes
//   24      n     payload (the trainer's serialized state)
//
// The format version names the payload layout as well as the header: the
// field list of RoundPipeline::checkpoint (fl/trainer.cc) and every
// nested ByteIo blob it carries (GAR, attack, RoundTally and the caller's
// extra state). Bump it whenever that layout changes, so a file from
// another layout is refused as "unsupported format version" rather than
// read field-shifted. Version 1 stored FNV-1a64 in the checksum field.
// Version 2 sealed with XXH64 but covered two field lists, the one before
// fl::RoundTally and the one after it; version 3 is the latter.
//
// Writes are atomic: the blob goes to "<path>.tmp", is flushed and
// fsync'd, then rename(2)'d over the destination — a crash mid-save
// leaves either the previous checkpoint or none, never a torn file.
// Reads verify magic, version, length and checksum and throw
// std::runtime_error on any mismatch: a corrupted checkpoint must fail
// loudly, never resume from garbage.
//
// What goes IN the payload is the trainer's business (fl/trainer.cc):
// model parameters, server momentum and previous aggregate, the
// trainer's four stream cursors, per-client RNG cursors / momentum
// buffers / loss stats, the result accumulators (accuracy history,
// selection rates, degradation counts and the RoundTally run totals),
// the GAR's and attack's cross-round state, and the caller's extra blob
// (the sweep observer's trace fold, round checksums and counter
// registry). The chaos engine (fl/chaos.h) is deliberately absent: its
// draws are stateless in (seed, client, round), so rebuilding it from
// the config reproduces every answer.

#include <functional>
#include <string>
#include <string_view>

#include "common/serial.h"

namespace signguard::fl {

struct CheckpointConfig {
  // Checkpoint file path; empty disables checkpointing entirely.
  std::string path;
  // Save after every `every`-th completed round (1 = every round).
  std::size_t every = 1;
  // Load `path` before training and continue from the saved round. With
  // no file at `path` the run starts from round 0 (first run and resumed
  // run share one command line).
  bool resume = false;
  // Simulated kill switch for crash-recovery tests and the CI
  // chaos-smoke job: stop cleanly after this many completed rounds
  // (TrainingResult::halted = true). 0 = run to completion. The halt
  // does NOT force a save; only the `every` schedule writes checkpoints,
  // exactly like a real crash.
  std::size_t halt_after_round = 0;
  // Observer-side state riding inside the checkpoint (the sweep engine
  // stores its trace fold + round checksums here, so a resumed scenario
  // emits byte-identical JSONL).
  std::function<void(common::ByteWriter&)> save_extra;
  std::function<void(common::ByteReader&)> load_extra;

  bool active() const { return !path.empty(); }
};

// Atomic checksummed write of `payload` to `path` (via <path>.tmp +
// fsync + rename). Throws std::runtime_error on any I/O failure.
void write_checkpoint_file(const std::string& path, std::string_view payload);

// Reads and verifies a checkpoint, returning the payload. Throws
// std::runtime_error when the file is missing, truncated, of a different
// format version, or fails its checksum.
std::string read_checkpoint_file(const std::string& path);

bool checkpoint_exists(const std::string& path);

}  // namespace signguard::fl
