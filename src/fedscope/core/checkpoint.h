#ifndef FEDSCOPE_CORE_CHECKPOINT_H_
#define FEDSCOPE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fedscope/comm/message.h"
#include "fedscope/nn/model.h"
#include "fedscope/util/status.h"

namespace fedscope {

struct ObsContext;

/// A training-course snapshot (paper §4.3: "FederatedScope can export the
/// snapshot of a training course to a corresponding checkpoint, from which
/// another training course can restore") — the mechanism behind the
/// multi-fidelity HPO methods (SHA, Hyperband, PBT) and, since the crash
/// recovery work (DESIGN.md §10), behind server restarts.
///
/// Serialized through the same backend-independent wire format as
/// messages, so checkpoints written by one backend restore on another.
struct Checkpoint {
  int round = 0;
  double virtual_time = 0.0;
  double best_accuracy = 0.0;
  StateDict global_state;
  /// Full course state beyond the model: rng streams, sampler cursor,
  /// aggregator accumulators, pending cohort, stats, transport epoch.
  /// Empty for plain HPO model checkpoints; the exact key schema is owned
  /// by Server::ExportSnapshot.
  Payload course;
};

/// The format ("fedscope-checkpoint-v2") carries the course section and
/// an explicit parameter count, so empty state dicts round-trip. Any other
/// format, the retired v1 included, is refused as not a fedscope
/// checkpoint.
std::vector<uint8_t> SerializeCheckpoint(const Checkpoint& checkpoint);
Result<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& bytes);

/// Applies a checkpoint's parameters to a model (architecture must match).
Status RestoreModel(const Checkpoint& checkpoint, Model* model);

// -- payload packing helpers ------------------------------------------------
// Byte-exact packing of numeric vectors into binary-safe string scalars
// (8-byte words, native layout like the wire codec). Doubles round-trip
// bit-identically, which the codec's float32 tensors could not guarantee.

void SetPackedU64s(Payload* p, const std::string& key,
                   const std::vector<uint64_t>& v);
std::vector<uint64_t> GetPackedU64s(const Payload& p, const std::string& key);
void SetPackedInt64s(Payload* p, const std::string& key,
                     const std::vector<int64_t>& v);
std::vector<int64_t> GetPackedInt64s(const Payload& p, const std::string& key);
void SetPackedDoubles(Payload* p, const std::string& key,
                      const std::vector<double>& v);
std::vector<double> GetPackedDoubles(const Payload& p, const std::string& key);

/// Copies every entry of `src` into `dst` under "<prefix>/", preserving
/// scalar types (int64 vs double matters for bit-exact restore).
void MergePayloadWithPrefix(Payload* dst, const std::string& prefix,
                            const Payload& src);
/// Recovers the sub-payload stored under "<prefix>/" by
/// MergePayloadWithPrefix.
Payload ExtractPayloadPrefix(const Payload& src, const std::string& prefix);

// -- durable snapshot files -------------------------------------------------

/// Container framing for a checkpoint on disk: 20-byte header
/// (magic "FSNP", u32 container version, u64 payload size, u32 CRC-32 of
/// the payload) followed by the wire-encoded checkpoint payload. The CRC
/// turns torn or bit-flipped files into a Status instead of garbage state.
std::vector<uint8_t> EncodeCheckpointFile(const Checkpoint& checkpoint);
/// Strict parse: rejects short headers, bad magic, unknown versions,
/// size mismatches, trailing bytes, and checksum mismatches.
Result<Checkpoint> DecodeCheckpointFile(const std::vector<uint8_t>& bytes);

/// Crash-consistent write: encode to "<path>.tmp", fsync the file and its
/// directory, then rename over `path` — a reader never observes a partial
/// snapshot, and a crash mid-write leaves the previous snapshot intact.
/// Returns the byte size written.
Result<int64_t> WriteCheckpointFileAtomic(const std::string& path,
                                          const Checkpoint& checkpoint);
Result<Checkpoint> ReadCheckpointFile(const std::string& path);

/// When/where the server persists course snapshots.
struct SnapshotPolicy {
  /// Snapshot directory; empty disables snapshotting entirely.
  std::string directory;
  /// Snapshot after every Nth aggregated round (1 = on every aggregate,
  /// 0 disables).
  int every_n_rounds = 1;
  /// Retain only the newest N snapshot files (0 = keep all). Two is the
  /// safe minimum: the newest may be mid-rename when the crash hits.
  int keep_last = 2;
};

/// The outcome of one snapshot persist, which the caller of a
/// SnapshotWriter learns at its next Write or Flush.
struct SnapshotPersist {
  /// Round of the persisted checkpoint.
  int round = 0;
  /// Ok, or why the persist failed.
  Status status;
  /// Size of the file written; 0 when the persist failed.
  int64_t bytes = 0;
};

/// Applies a SnapshotPolicy behind the caller's back. The caller hands a
/// checkpoint over at a round boundary; a writer thread, started at the
/// first Write, serializes and checksums it and persists it as
/// "snapshot-<round>.ckpt" inside policy.directory (created
/// on the first persist) while the caller runs on. At most one persist is
/// in flight. The thread touches nothing but the checkpoint and the files.
///
/// A persist costs one data sync. The writer keeps the file it last
/// retired as a spare, under a name no snapshot reader matches (created
/// when there is none): it writes the bytes into the spare and fdatasyncs
/// it, renames it to the snapshot name and fsyncs the directory, then
/// retires the oldest file beyond keep_last by renaming it to the spare
/// name, unsynced. Once keep_last snapshots exist, that many valid named
/// files exist at every instant. The one torn file a power cut can leave
/// under a snapshot name is the oldest: when the retiring rename has not
/// reached the disk, the next persist's bytes land in a file that still
/// carries its old name, and the checksum rejects it. The directory is
/// listed once, at the first persist. Writers that share a directory share
/// the spare: none may persist, or be destroyed, while another persists.
class SnapshotWriter {
 public:
  SnapshotWriter();
  explicit SnapshotWriter(SnapshotPolicy policy);
  /// Completes the persist in flight (uncounted), then deletes the spare.
  ~SnapshotWriter();
  SnapshotWriter(SnapshotWriter&&) noexcept;
  SnapshotWriter& operator=(SnapshotWriter&&) noexcept;

  bool enabled() const {
    return !policy_.directory.empty() && policy_.every_n_rounds > 0;
  }
  /// True when the policy calls for a snapshot after aggregation `round`.
  bool ShouldSnapshot(int round) const {
    return enabled() && round > 0 && round % policy_.every_n_rounds == 0;
  }
  /// Hands `checkpoint` to the writer thread. Waits first for the persist
  /// in flight and returns its outcome (nullopt when none was in flight).
  std::optional<SnapshotPersist> Write(Checkpoint checkpoint);
  /// Waits for the persist in flight and returns its outcome (nullopt when
  /// none was in flight). Afterwards the directory holds every snapshot
  /// handed over.
  std::optional<SnapshotPersist> Flush();

  const SnapshotPolicy& policy() const { return policy_; }
  /// Persists that completed and that Write or Flush has reported.
  int64_t snapshots_written() const { return snapshots_written_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  /// The writer thread and the files it owns.
  class Persister;

  SnapshotPolicy policy_;
  std::unique_ptr<Persister> persister_;
  int64_t snapshots_written_ = 0;
  int64_t bytes_written_ = 0;
};

/// Books a persist that SnapshotWriter::Write or Flush reported (nothing
/// for nullopt). A failed persist is logged and not counted. A completed
/// one is counted in fs_snapshots_written_total and fs_snapshot_bytes_total
/// of `obs` (when not null) and marks its round in obs->course_log.
void BookSnapshot(const ObsContext* obs,
                  const std::optional<SnapshotPersist>& persist);

/// Loads the newest valid snapshot in `directory` whose filename is
/// "snapshot-<round>.ckpt", skipping (with a logged warning) files that
/// fail the container checks — a torn newest file falls back to the
/// previous one. NotFound when none is valid.
Result<Checkpoint> LoadLatestSnapshot(const std::string& directory);

}  // namespace fedscope

#endif  // FEDSCOPE_CORE_CHECKPOINT_H_
