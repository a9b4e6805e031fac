#include "fedscope/comm/compression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fedscope/util/logging.h"

namespace fedscope {
namespace {

/// An update's payload keys. Raw: "delta/<name>" tensors. Compressed: the
/// codec's name under kCodecKey, and per tensor "<tag>/<name>/<field>"
/// entries: quant8 ("q") codes, lo, hi and shape; topk ("s") indices,
/// values and shape.
constexpr char kRawPrefix[] = "delta";
constexpr char kCodecKey[] = "codec";
constexpr char kQuant8[] = "quant8";
constexpr char kTopK[] = "topk";

std::string Key(const char* tag, const std::string& name, const char* field) {
  return std::string(tag) + "/" + name + "/" + field;
}

/// Shapes ride along as small float tensors (dims are < 2^24, exact).
Tensor ShapeTensor(const Tensor& t) {
  std::vector<float> dims(t.ndim());
  for (int d = 0; d < t.ndim(); ++d) {
    dims[d] = static_cast<float>(t.dim(d));
  }
  return Tensor::FromVector(dims);
}

/// The string scalar under `key`, or null when absent or not a string.
const std::string* StringEntry(const Payload& payload, const std::string& key) {
  const auto it = payload.scalars().find(key);
  if (it == payload.scalars().end()) return nullptr;
  return std::get_if<std::string>(&it->second);
}

/// Holds a compressed update to `signature` before anything is allocated:
/// `fields` entries under `tag` per signature tensor and no more (each
/// decoder finds every field it needs), and each claimed shape equal to the
/// signature's. Dims compare as floats, so a NaN, negative, fractional or
/// inflated dim fails without becoming a size.
Status CheckEntries(const Payload& payload, const char* tag, size_t fields,
                    const StateDict& signature) {
  const std::string prefix = std::string(tag) + "/";
  size_t entries = 0;
  for (auto it = payload.tensors().lower_bound(prefix);
       it != payload.tensors().end() && it->first.starts_with(prefix); ++it) {
    ++entries;
  }
  for (auto it = payload.scalars().lower_bound(prefix);
       it != payload.scalars().end() && it->first.starts_with(prefix); ++it) {
    ++entries;
  }
  if (entries != fields * signature.size()) {
    return Status::DataLoss(std::string(tag) +
                            "/ entries do not match the signature");
  }
  for (const auto& [name, like] : signature) {
    const auto shape = payload.tensors().find(Key(tag, name, "shape"));
    bool same = shape != payload.tensors().end() &&
                shape->second.numel() == like.ndim();
    for (int d = 0; same && d < like.ndim(); ++d) {
      same = shape->second.at(d) == static_cast<float>(like.dim(d));
    }
    if (!same) return Status::DataLoss("shape mismatch for " + name);
  }
  return Status::Ok();
}

// -- uniform 8-bit quantization ---------------------------------------------

void EncodeQuant8(const StateDict& state, Payload* payload) {
  payload->SetString(kCodecKey, kQuant8);
  for (const auto& [name, tensor] : state) {
    float lo = tensor.numel() > 0 ? tensor.at(0) : 0.0f;
    float hi = lo;
    for (int64_t i = 1; i < tensor.numel(); ++i) {
      lo = std::min(lo, tensor.at(i));
      hi = std::max(hi, tensor.at(i));
    }
    const float range = std::max(hi - lo, 1e-12f);
    std::string codes(tensor.numel(), '\0');
    for (int64_t i = 0; i < tensor.numel(); ++i) {
      const float t = (tensor.at(i) - lo) / range;
      codes[i] = static_cast<char>(static_cast<uint8_t>(
          std::lround(t * 255.0f)));
    }
    payload->SetString(Key("q", name, "codes"), std::move(codes));
    payload->SetDouble(Key("q", name, "lo"), lo);
    payload->SetDouble(Key("q", name, "hi"), hi);
    payload->SetTensor(Key("q", name, "shape"), ShapeTensor(tensor));
  }
}

Result<StateDict> DecodeQuant8(const Payload& payload,
                               const StateDict& signature) {
  FS_RETURN_IF_ERROR(CheckEntries(payload, "q", 4, signature));
  StateDict state;
  for (const auto& [name, like] : signature) {
    const std::string* codes = StringEntry(payload, Key("q", name, "codes"));
    const std::string lo_key = Key("q", name, "lo");
    const std::string hi_key = Key("q", name, "hi");
    if (codes == nullptr ||
        static_cast<int64_t>(codes->size()) != like.numel() ||
        !payload.HasScalar(lo_key) || !payload.HasScalar(hi_key)) {
      return Status::DataLoss("malformed quant8 entry for " + name);
    }
    const double lo = payload.GetDouble(lo_key);
    const double hi = payload.GetDouble(hi_key);
    Tensor out(like.shape());
    const double range = std::max(hi - lo, 1e-12);
    for (int64_t i = 0; i < out.numel(); ++i) {
      const uint8_t code = static_cast<uint8_t>((*codes)[i]);
      out.at(i) = static_cast<float>(lo + range * code / 255.0);
    }
    state[name] = std::move(out);
  }
  return state;
}

// -- top-k sparsification -----------------------------------------------------

void EncodeTopK(const StateDict& state, double keep_frac, Payload* payload) {
  FS_CHECK_GT(keep_frac, 0.0);
  FS_CHECK_LE(keep_frac, 1.0);
  payload->SetString(kCodecKey, kTopK);
  for (const auto& [name, tensor] : state) {
    const int64_t k = std::max<int64_t>(
        1, static_cast<int64_t>(keep_frac * tensor.numel()));
    std::vector<int64_t> order(tensor.numel());
    for (int64_t i = 0; i < tensor.numel(); ++i) order[i] = i;
    std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                     [&](int64_t a, int64_t b) {
                       return std::fabs(tensor.at(a)) >
                              std::fabs(tensor.at(b));
                     });
    order.resize(k);
    std::sort(order.begin(), order.end());

    std::string indices(k * sizeof(uint32_t), '\0');
    std::vector<float> values(k);
    for (int64_t i = 0; i < k; ++i) {
      const uint32_t idx = static_cast<uint32_t>(order[i]);
      std::memcpy(indices.data() + i * sizeof(uint32_t), &idx,
                  sizeof(uint32_t));
      values[i] = tensor.at(order[i]);
    }
    payload->SetString(Key("s", name, "indices"), std::move(indices));
    payload->SetTensor(Key("s", name, "values"), Tensor::FromVector(values));
    payload->SetTensor(Key("s", name, "shape"), ShapeTensor(tensor));
  }
}

Result<StateDict> DecodeTopK(const Payload& payload,
                             const StateDict& signature) {
  FS_RETURN_IF_ERROR(CheckEntries(payload, "s", 3, signature));
  StateDict state;
  for (const auto& [name, like] : signature) {
    const std::string* indices =
        StringEntry(payload, Key("s", name, "indices"));
    const auto values = payload.tensors().find(Key("s", name, "values"));
    if (indices == nullptr || values == payload.tensors().end() ||
        indices->size() != values->second.numel() * sizeof(uint32_t)) {
      return Status::DataLoss("malformed topk entry for " + name);
    }
    Tensor out(like.shape());
    for (int64_t i = 0; i < values->second.numel(); ++i) {
      uint32_t idx = 0;
      std::memcpy(&idx, indices->data() + i * sizeof(uint32_t),
                  sizeof(uint32_t));
      if (static_cast<int64_t>(idx) >= out.numel()) {
        return Status::DataLoss("topk index out of range for " + name);
      }
      out.at(idx) = values->second.at(i);
    }
    state[name] = std::move(out);
  }
  return state;
}

}  // namespace

Payload EncodeUpdate(const StateDict& delta, const std::string& codec,
                     double keep_frac) {
  Payload payload;
  if (codec == kQuant8) {
    EncodeQuant8(delta, &payload);
  } else if (codec == kTopK) {
    EncodeTopK(delta, keep_frac, &payload);
  } else {
    payload.SetStateDict(kRawPrefix, delta);
  }
  return payload;
}

Result<StateDict> DecodeUpdate(const Payload& payload,
                               const StateDict& signature) {
  if (!payload.HasScalar(kCodecKey)) return payload.GetStateDict(kRawPrefix);
  const std::string codec = payload.GetString(kCodecKey);  // "" if no string
  if (codec == kQuant8) return DecodeQuant8(payload, signature);
  if (codec == kTopK) return DecodeTopK(payload, signature);
  return Status::InvalidArgument("unknown update codec");
}

int64_t RawUpdateBytes(const StateDict& delta) {
  int64_t bytes = 0;
  for (const auto& [name, tensor] : delta) {
    bytes += static_cast<int64_t>(sizeof(kRawPrefix) + name.size()) + 16 +
             tensor.numel() * static_cast<int64_t>(sizeof(float)) +
             tensor.ndim() * 8;
  }
  return bytes;
}

}  // namespace fedscope
