#include "fedscope/core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>
#include <variant>

#include "fedscope/comm/codec.h"
#include "fedscope/obs/obs_context.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr char kStateKey[] = "global";
constexpr char kCourseKey[] = "course";
constexpr char kFormatV2[] = "fedscope-checkpoint-v2";

constexpr std::array<uint8_t, 4> kFileMagic = {'F', 'S', 'N', 'P'};
constexpr uint32_t kFileVersion = 1;
constexpr size_t kFileHeaderSize = 4 + 4 + 8 + 4;
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotExtension[] = ".ckpt";

/// Standard reflected CRC-32 (polynomial 0xEDB88320, as in zip/zlib).
uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

template <typename T>
void AppendWord(std::vector<uint8_t>* out, T value) {
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
T ReadWord(const uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

/// Packs a vector of 8-byte words into a binary-safe string scalar.
template <typename T>
void SetPackedWords(Payload* p, const std::string& key,
                    const std::vector<T>& v) {
  static_assert(sizeof(T) == 8);
  std::string bytes(v.size() * sizeof(T), '\0');
  if (!v.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  p->SetString(key, std::move(bytes));
}

template <typename T>
std::vector<T> GetPackedWords(const Payload& p, const std::string& key) {
  static_assert(sizeof(T) == 8);
  // Read in place: a batch join's scores are megabytes.
  const auto it = p.scalars().find(key);
  const std::string* bytes =
      it == p.scalars().end() ? nullptr : std::get_if<std::string>(&it->second);
  if (bytes == nullptr) return {};
  std::vector<T> v(bytes->size() / sizeof(T));
  if (!v.empty()) std::memcpy(v.data(), bytes->data(), v.size() * sizeof(T));
  return v;
}

}  // namespace

void SetPackedU64s(Payload* p, const std::string& key,
                   const std::vector<uint64_t>& v) {
  SetPackedWords(p, key, v);
}
std::vector<uint64_t> GetPackedU64s(const Payload& p, const std::string& key) {
  return GetPackedWords<uint64_t>(p, key);
}
void SetPackedInt64s(Payload* p, const std::string& key,
                     const std::vector<int64_t>& v) {
  SetPackedWords(p, key, v);
}
std::vector<int64_t> GetPackedInt64s(const Payload& p,
                                     const std::string& key) {
  return GetPackedWords<int64_t>(p, key);
}
void SetPackedDoubles(Payload* p, const std::string& key,
                      const std::vector<double>& v) {
  SetPackedWords(p, key, v);
}
std::vector<double> GetPackedDoubles(const Payload& p,
                                     const std::string& key) {
  return GetPackedWords<double>(p, key);
}

void MergePayloadWithPrefix(Payload* dst, const std::string& prefix,
                            const Payload& src) {
  for (const auto& [key, value] : src.scalars()) {
    const std::string out_key = prefix + "/" + key;
    if (std::holds_alternative<int64_t>(value)) {
      dst->SetInt(out_key, std::get<int64_t>(value));
    } else if (std::holds_alternative<double>(value)) {
      dst->SetDouble(out_key, std::get<double>(value));
    } else {
      dst->SetString(out_key, std::get<std::string>(value));
    }
  }
  for (const auto& [key, tensor] : src.tensors()) {
    dst->SetTensor(prefix + "/" + key, tensor);
  }
}

Payload ExtractPayloadPrefix(const Payload& src, const std::string& prefix) {
  Payload out;
  const std::string needle = prefix + "/";
  for (const auto& [key, value] : src.scalars()) {
    if (key.rfind(needle, 0) != 0) continue;
    const std::string inner = key.substr(needle.size());
    if (std::holds_alternative<int64_t>(value)) {
      out.SetInt(inner, std::get<int64_t>(value));
    } else if (std::holds_alternative<double>(value)) {
      out.SetDouble(inner, std::get<double>(value));
    } else {
      out.SetString(inner, std::get<std::string>(value));
    }
  }
  for (const auto& [key, tensor] : src.tensors()) {
    if (key.rfind(needle, 0) != 0) continue;
    out.SetTensor(key.substr(needle.size()), tensor);
  }
  return out;
}

std::vector<uint8_t> SerializeCheckpoint(const Checkpoint& checkpoint) {
  Payload payload;
  payload.SetInt("round", checkpoint.round);
  payload.SetDouble("virtual_time", checkpoint.virtual_time);
  payload.SetDouble("best_accuracy", checkpoint.best_accuracy);
  payload.SetString("format", kFormatV2);
  payload.SetInt("num_params",
                 static_cast<int64_t>(checkpoint.global_state.size()));
  payload.SetStateDict(kStateKey, checkpoint.global_state);
  MergePayloadWithPrefix(&payload, kCourseKey, checkpoint.course);
  return EncodePayload(payload);
}

Result<Checkpoint> DeserializeCheckpoint(const std::vector<uint8_t>& bytes) {
  auto payload = DecodePayload(bytes);
  if (!payload.ok()) return payload.status();
  if (payload->GetString("format") != kFormatV2) {
    return Status::InvalidArgument("not a fedscope checkpoint");
  }
  Checkpoint checkpoint;
  checkpoint.round = static_cast<int>(payload->GetInt("round"));
  checkpoint.virtual_time = payload->GetDouble("virtual_time");
  checkpoint.best_accuracy = payload->GetDouble("best_accuracy");
  checkpoint.global_state = payload->GetStateDict(kStateKey);
  const int64_t num_params = payload->GetInt("num_params", -1);
  if (num_params !=
      static_cast<int64_t>(checkpoint.global_state.size())) {
    return Status::DataLoss("checkpoint parameter count mismatch");
  }
  checkpoint.course = ExtractPayloadPrefix(*payload, kCourseKey);
  return checkpoint;
}

Status RestoreModel(const Checkpoint& checkpoint, Model* model) {
  return model->LoadStateDict(checkpoint.global_state, /*strict=*/true);
}

std::vector<uint8_t> EncodeCheckpointFile(const Checkpoint& checkpoint) {
  const std::vector<uint8_t> payload = SerializeCheckpoint(checkpoint);
  std::vector<uint8_t> out;
  out.reserve(kFileHeaderSize + payload.size());
  out.insert(out.end(), kFileMagic.begin(), kFileMagic.end());
  AppendWord<uint32_t>(&out, kFileVersion);
  AppendWord<uint64_t>(&out, payload.size());
  AppendWord<uint32_t>(&out, Crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<Checkpoint> DecodeCheckpointFile(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kFileHeaderSize) {
    return Status::DataLoss("truncated checkpoint file header");
  }
  if (!std::equal(kFileMagic.begin(), kFileMagic.end(), bytes.begin())) {
    return Status::InvalidArgument("not a fedscope checkpoint file");
  }
  const uint32_t version = ReadWord<uint32_t>(bytes.data() + 4);
  if (version != kFileVersion) {
    return Status::InvalidArgument("unsupported checkpoint file version " +
                                   std::to_string(version));
  }
  const uint64_t payload_size = ReadWord<uint64_t>(bytes.data() + 8);
  if (bytes.size() - kFileHeaderSize < payload_size) {
    return Status::DataLoss("truncated checkpoint file payload");
  }
  if (bytes.size() - kFileHeaderSize > payload_size) {
    return Status::InvalidArgument("trailing bytes after checkpoint payload");
  }
  const uint32_t expected_crc = ReadWord<uint32_t>(bytes.data() + 16);
  const uint8_t* payload = bytes.data() + kFileHeaderSize;
  if (Crc32(payload, payload_size) != expected_crc) {
    return Status::DataLoss("checkpoint file checksum mismatch");
  }
  return DeserializeCheckpoint(
      std::vector<uint8_t>(payload, payload + payload_size));
}

namespace {

/// Makes `bytes` durable under `path` by way of the file `via` (created if
/// missing, else overwritten to the exact size): writes and fdatasyncs
/// `via`, renames it to `path` and fsyncs the directory. On failure `via`
/// is deleted.
Status PublishFile(const std::string& via, const std::string& path,
                   const std::vector<uint8_t>& bytes) {
  const int fd = ::open(via.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + via + ": " +
                            std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::pwrite(fd, bytes.data() + off, bytes.size() - off,
                               static_cast<off_t>(off));
    if (n < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(via.c_str());
      return Status::Internal("cannot write " + via + ": " + err);
    }
    off += static_cast<size_t>(n);
  }
  // Sync before rename: the rename must never become visible while the
  // file's data blocks are still in flight (else a crash leaves a named
  // but torn snapshot).
  const bool synced =
      ::ftruncate(fd, static_cast<off_t>(bytes.size())) == 0 &&
      ::fdatasync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(via.c_str());
    return Status::Internal("cannot sync " + via);
  }
  if (::rename(via.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(via.c_str());
    return Status::Internal("cannot rename " + via + ": " + err);
  }
  // fsync the directory so the rename itself survives a power cut.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status::Ok();
}

}  // namespace

Result<int64_t> WriteCheckpointFileAtomic(const std::string& path,
                                          const Checkpoint& checkpoint) {
  const std::vector<uint8_t> bytes = EncodeCheckpointFile(checkpoint);
  FS_RETURN_IF_ERROR(PublishFile(path + ".tmp", path, bytes));
  return static_cast<int64_t>(bytes.size());
}

Result<Checkpoint> ReadCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  return DecodeCheckpointFile(bytes);
}

namespace {

/// True iff `filename` is "snapshot-<round>.ckpt".
bool MatchesSnapshotName(const std::string& filename) {
  return filename.size() >
             std::strlen(kSnapshotPrefix) + std::strlen(kSnapshotExtension) &&
         filename.starts_with(kSnapshotPrefix) &&
         filename.ends_with(kSnapshotExtension);
}

}  // namespace

class SnapshotWriter::Persister {
 public:
  explicit Persister(SnapshotPolicy policy)
      : policy_(std::move(policy)),
        spare_path_(
            (std::filesystem::path(policy_.directory) / kSpareName).string()),
        thread_([this] { Loop(); }) {}

  /// Completes a handed-over checkpoint, stops the thread, deletes the
  /// spare (if any).
  ~Persister() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    ::unlink(spare_path_.c_str());
  }

  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  /// Requires that no persist is in flight (Wait returned since the last
  /// Hand).
  void Hand(Checkpoint checkpoint) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      FS_CHECK(!busy_) << "snapshot handed over with one in flight";
      pending_ = std::move(checkpoint);
      busy_ = true;
    }
    cv_.notify_all();
  }

  /// Waits for the persist in flight and takes its outcome.
  std::optional<SnapshotPersist> Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !busy_; });
    return std::exchange(outcome_, std::nullopt);
  }

 private:
  /// Never a snapshot name: MatchesSnapshotName wants "snapshot-".
  static constexpr char kSpareName[] = "snapshot.spare";

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [this] { return pending_.has_value() || stop_; });
      if (!pending_.has_value()) return;
      std::optional<Checkpoint> checkpoint = std::exchange(pending_, {});
      lock.unlock();
      SnapshotPersist outcome = Persist(*checkpoint);
      checkpoint.reset();
      lock.lock();
      outcome_ = std::move(outcome);
      busy_ = false;
      cv_.notify_all();
    }
  }

  SnapshotPersist Persist(const Checkpoint& checkpoint) {
    SnapshotPersist out;
    out.round = checkpoint.round;
    out.status = ListDirectory();
    if (!out.status.ok()) return out;
    const std::vector<uint8_t> bytes = EncodeCheckpointFile(checkpoint);
    char name[64];
    std::snprintf(name, sizeof(name), "%s%06d%s", kSnapshotPrefix,
                  checkpoint.round, kSnapshotExtension);
    const std::string path =
        (std::filesystem::path(policy_.directory) / name).string();
    out.status = PublishFile(spare_path_, path, bytes);
    if (!out.status.ok()) return out;
    out.bytes = static_cast<int64_t>(bytes.size());
    Retire(name);
    return out;
  }

  /// Creates the directory and lists its snapshots, once.
  Status ListDirectory() {
    namespace fs = std::filesystem;
    if (listed_) return Status::Ok();
    std::error_code ec;
    fs::create_directories(policy_.directory, ec);
    if (ec) {
      return Status::Internal("cannot create snapshot directory " +
                              policy_.directory + ": " + ec.message());
    }
    named_.clear();
    if (policy_.keep_last > 0) {
      for (fs::directory_iterator it(policy_.directory, ec), end;
           !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (MatchesSnapshotName(name)) named_.push_back(name);
      }
      if (ec) {
        return Status::Internal("cannot list snapshot directory " +
                                policy_.directory + ": " + ec.message());
      }
      // Zero-padded round numbers make lexicographic order round order.
      std::sort(named_.begin(), named_.end());
    }
    listed_ = true;
    return Status::Ok();
  }

  /// Records `name` and retires the oldest files beyond keep_last by
  /// renaming each to the spare name (each rename replaces the last spare).
  void Retire(const std::string& name) {
    if (policy_.keep_last <= 0) return;
    const auto at = std::lower_bound(named_.begin(), named_.end(), name);
    if (at == named_.end() || *at != name) named_.insert(at, name);
    while (named_.size() > static_cast<size_t>(policy_.keep_last)) {
      const std::string oldest =
          (std::filesystem::path(policy_.directory) / named_.front()).string();
      ::rename(oldest.c_str(), spare_path_.c_str());
      named_.erase(named_.begin());
    }
  }

  const SnapshotPolicy policy_;
  const std::string spare_path_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Checkpoint> pending_;       // guarded by mu_
  std::optional<SnapshotPersist> outcome_;  // guarded by mu_
  bool busy_ = false;                       // guarded by mu_
  bool stop_ = false;                       // guarded by mu_

  // The writer thread's own.
  bool listed_ = false;
  std::vector<std::string> named_;  // the directory's snapshots, ascending

  std::thread thread_;  // last: starts once the members above exist
};

SnapshotWriter::SnapshotWriter() = default;
SnapshotWriter::SnapshotWriter(SnapshotPolicy policy)
    : policy_(std::move(policy)) {}
SnapshotWriter::~SnapshotWriter() = default;
SnapshotWriter::SnapshotWriter(SnapshotWriter&&) noexcept = default;
SnapshotWriter& SnapshotWriter::operator=(SnapshotWriter&&) noexcept = default;

std::optional<SnapshotPersist> SnapshotWriter::Write(Checkpoint checkpoint) {
  FS_CHECK(enabled()) << "SnapshotWriter::Write with snapshots disabled";
  std::optional<SnapshotPersist> previous = Flush();
  if (persister_ == nullptr) {
    persister_ = std::make_unique<Persister>(policy_);
  }
  persister_->Hand(std::move(checkpoint));
  return previous;
}

std::optional<SnapshotPersist> SnapshotWriter::Flush() {
  if (persister_ == nullptr) return std::nullopt;
  std::optional<SnapshotPersist> done = persister_->Wait();
  if (done.has_value() && done->status.ok()) {
    ++snapshots_written_;
    bytes_written_ += done->bytes;
  }
  return done;
}

void BookSnapshot(const ObsContext* obs,
                  const std::optional<SnapshotPersist>& persist) {
  if (!persist.has_value()) return;
  if (!persist->status.ok()) {
    FS_LOG(Warning) << "snapshot write failed: " << persist->status.ToString();
    return;
  }
  if (obs == nullptr) return;
  obs->Count("fs_snapshots_written_total");
  obs->Count("fs_snapshot_bytes_total", static_cast<double>(persist->bytes));
  if (obs->course_log != nullptr) {
    obs->course_log->AnnotateSnapshot(persist->round, persist->bytes);
  }
}

Result<Checkpoint> LoadLatestSnapshot(const std::string& directory) {
  namespace fs = std::filesystem;
  std::vector<fs::path> snapshots;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const fs::path& p = entry.path();
    if (MatchesSnapshotName(p.filename().string())) {
      snapshots.push_back(p);
    }
  }
  if (ec) {
    return Status::NotFound("cannot list snapshot directory " + directory +
                            ": " + ec.message());
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  for (const auto& path : snapshots) {
    auto checkpoint = ReadCheckpointFile(path.string());
    if (checkpoint.ok()) return checkpoint;
    FS_LOG(Warning) << "skipping invalid snapshot " << path.string() << ": "
                    << checkpoint.status().ToString();
  }
  return Status::NotFound("no valid snapshot in " + directory);
}

}  // namespace fedscope
