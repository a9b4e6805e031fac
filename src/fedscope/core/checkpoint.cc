#include "fedscope/core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <variant>

#include "fedscope/comm/codec.h"
#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

constexpr char kStateKey[] = "global";
constexpr char kCourseKey[] = "course";
constexpr char kFormatV1[] = "fedscope-checkpoint-v1";
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
  const std::string format = payload->GetString("format");
  if (format != kFormatV1 && format != kFormatV2) {
    return Status::InvalidArgument("not a fedscope checkpoint");
  }
  Checkpoint checkpoint;
  checkpoint.round = static_cast<int>(payload->GetInt("round"));
  checkpoint.virtual_time = payload->GetDouble("virtual_time");
  checkpoint.best_accuracy = payload->GetDouble("best_accuracy");
  checkpoint.global_state = payload->GetStateDict(kStateKey);
  if (format == kFormatV1) {
    // v1 predates the explicit count: an empty dict is indistinguishable
    // from a stripped file, so it stays an error.
    if (checkpoint.global_state.empty()) {
      return Status::DataLoss("checkpoint carries no parameters");
    }
    return checkpoint;
  }
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

Result<int64_t> WriteCheckpointFileAtomic(const std::string& path,
                                          const Checkpoint& checkpoint) {
  const std::vector<uint8_t> bytes = EncodeCheckpointFile(checkpoint);
  const std::string tmp_path = path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + tmp_path + ": " +
                               std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::Internal("cannot write " + tmp_path + ": " + err);
    }
    off += static_cast<size_t>(n);
  }
  // fsync before rename: the rename must never become visible while the
  // file's data blocks are still in flight (else a crash leaves a named
  // but torn snapshot).
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp_path.c_str());
    return Status::Internal("cannot sync " + tmp_path);
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return Status::Internal("cannot rename " + tmp_path + ": " + err);
  }
  // fsync the directory so the rename itself survives a power cut.
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
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

/// True iff `filename` is "<worker_prefix>snapshot-<round>.ckpt". The
/// prefix must match exactly: an unprefixed reader ("") requires the name
/// to START with "snapshot-", so it never picks up "s0-snapshot-...".
bool MatchesSnapshotName(const std::string& filename,
                         const std::string& worker_prefix) {
  const std::string want = worker_prefix + kSnapshotPrefix;
  return filename.rfind(want, 0) == 0 &&
         filename.size() > want.size() + std::strlen(kSnapshotExtension) &&
         filename.compare(filename.size() - std::strlen(kSnapshotExtension),
                          std::strlen(kSnapshotExtension),
                          kSnapshotExtension) == 0;
}

}  // namespace

Result<int64_t> SnapshotWriter::Write(const Checkpoint& checkpoint) {
  namespace fs = std::filesystem;
  FS_CHECK(enabled()) << "SnapshotWriter::Write with snapshots disabled";
  std::error_code ec;
  fs::create_directories(policy_.directory, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot directory " +
                               policy_.directory + ": " + ec.message());
  }
  char name[64];
  std::snprintf(name, sizeof(name), "%s%s%06d%s",
                policy_.worker_prefix.c_str(), kSnapshotPrefix,
                checkpoint.round, kSnapshotExtension);
  const std::string path =
      (fs::path(policy_.directory) / name).string();
  auto written = WriteCheckpointFileAtomic(path, checkpoint);
  if (!written.ok()) return written.status();
  ++snapshots_written_;
  bytes_written_ += written.value();
  if (policy_.keep_last > 0) {
    std::vector<fs::path> snapshots;
    for (const auto& entry : fs::directory_iterator(policy_.directory)) {
      const fs::path& p = entry.path();
      if (MatchesSnapshotName(p.filename().string(), policy_.worker_prefix)) {
        snapshots.push_back(p);
      }
    }
    // Zero-padded round numbers make lexicographic order round order.
    std::sort(snapshots.begin(), snapshots.end());
    while (snapshots.size() > static_cast<size_t>(policy_.keep_last)) {
      fs::remove(snapshots.front(), ec);
      snapshots.erase(snapshots.begin());
    }
  }
  return written;
}

Result<Checkpoint> LoadLatestSnapshot(const std::string& directory,
                                      const std::string& worker_prefix) {
  namespace fs = std::filesystem;
  std::vector<fs::path> snapshots;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const fs::path& p = entry.path();
    if (MatchesSnapshotName(p.filename().string(), worker_prefix)) {
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
