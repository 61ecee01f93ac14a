// Durable checkpoint writer: persists snapshots atomically (tmp file +
// fsync + rename, then a directory fsync) so a crash at any instant
// leaves either the previous checkpoint set or the new one -- never a
// torn file -- and rotates the directory down to the newest N
// checkpoints. The StreamSimulator and ShardedPipeline drive it via
// their checkpoint_dir / checkpoint_every options; `pier_cli
// --resume-from` restores from the files it writes.
//
// Instrumented with `persist.*` metrics (checkpoints written, bytes,
// write latency, rotations, failures) through the src/obs/ registry.

#ifndef PIER_PERSIST_CHECKPOINT_MANAGER_H_
#define PIER_PERSIST_CHECKPOINT_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "persist/snapshot.h"

namespace pier {
namespace persist {

struct CheckpointOptions {
  // Directory the checkpoints live in (created on the first write);
  // empty disables checkpointing.
  std::string dir;
  // A checkpoint is due every `every` delivered increments (the driver
  // consults Due()); 0 disables.
  size_t every = 10;
  // Newest checkpoints kept after rotation; 0 keeps all.
  size_t keep = 3;
  // Optional `persist.*` metrics sink; non-owning.
  obs::MetricsRegistry* metrics = nullptr;
};

class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options);

  bool enabled() const { return !options_.dir.empty() && options_.every > 0; }

  // True when a checkpoint is due after `delivered` increments (always
  // true at 0, covering resume-before-the-first-increment).
  bool Due(uint64_t delivered) const {
    return enabled() && delivered % options_.every == 0;
  }

  // Atomically writes `snapshot` as ckpt-<seq>.piersnap in the
  // checkpoint directory and rotates older checkpoints out. Returns
  // the final path, or an empty string with *error set on failure (the
  // previous checkpoints are left intact either way).
  std::string Write(uint64_t seq, const SnapshotBuilder& snapshot,
                    std::string* error);

  // Path of the checkpoint with the highest sequence number in `dir`,
  // or nullopt when none exists.
  static std::optional<std::string> FindLatest(const std::string& dir);

 private:
  void Rotate();

  CheckpointOptions options_;
  obs::Counter* checkpoints_metric_ = nullptr;
  obs::Counter* failures_metric_ = nullptr;
  obs::Counter* rotations_metric_ = nullptr;
  obs::Counter* sections_metric_ = nullptr;
  obs::Histogram* bytes_metric_ = nullptr;
  obs::Histogram* write_ns_metric_ = nullptr;
};

}  // namespace persist
}  // namespace pier

#endif  // PIER_PERSIST_CHECKPOINT_MANAGER_H_
