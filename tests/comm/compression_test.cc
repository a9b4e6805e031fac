#include "fedscope/comm/compression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "fedscope/comm/codec.h"
#include "fedscope/nn/model_zoo.h"
#include "fedscope/tensor/tensor_ops.h"

namespace fedscope {
namespace {

StateDict SampleState(uint64_t seed = 1) {
  Rng rng(seed);
  return MakeMlp({16, 12, 4}, &rng).GetStateDict();
}

/// `update` with `edit` applied to every tensor it carries. For a
/// compressed update those include each tensor's shape entry, as in a
/// hostile client's in-flight rewrite (fault/fault_plan.cc).
Payload EditTensors(Payload update, const std::function<void(Tensor*)>& edit) {
  std::vector<std::string> keys;
  for (const auto& [key, tensor] : update.tensors()) keys.push_back(key);
  for (const std::string& key : keys) {
    Tensor t = update.GetTensor(key).value();
    edit(&t);
    update.SetTensor(key, std::move(t));
  }
  return update;
}

/// `update` with its codec tag — the one scalar an empty compressed update
/// carries — set to `codec`.
Payload WithCodecTag(Payload update, const std::string& codec) {
  const Payload empty = EncodeUpdate({}, "quant8", 1.0);
  for (const auto& [key, value] : empty.scalars()) update.SetString(key, codec);
  return update;
}

/// Every hostile rewrite of a `codec` update must decode to a Status.
void ExpectHostileUpdatesRejected(const std::string& codec) {
  const StateDict state = SampleState(5);
  const Payload update = EncodeUpdate(state, codec, 0.5);
  ASSERT_TRUE(DecodeUpdate(update, state).ok());

  const auto nan_shape = EditTensors(update, [](Tensor* t) {
    t->at(0) = std::numeric_limits<float>::quiet_NaN();
  });
  const auto negative_shape = EditTensors(update, [](Tensor* t) {
    for (int64_t i = 0; i < t->numel(); ++i) t->at(i) = -t->at(i);
  });
  const auto inflated_shape = EditTensors(update, [](Tensor* t) {
    for (int64_t i = 0; i < t->numel(); ++i) t->at(i) *= 1e6f;
  });
  EXPECT_FALSE(DecodeUpdate(nan_shape, state).ok());
  EXPECT_FALSE(DecodeUpdate(negative_shape, state).ok());
  EXPECT_FALSE(DecodeUpdate(inflated_shape, state).ok());

  // Names: the update carries a tensor the signature lacks, or lacks one
  // the signature has.
  StateDict smaller = state;
  smaller.erase(smaller.begin());
  EXPECT_FALSE(DecodeUpdate(update, smaller).ok());
  EXPECT_FALSE(DecodeUpdate(EncodeUpdate(smaller, codec, 0.5), state).ok());
  StateDict renamed;
  for (const auto& [name, tensor] : state) renamed[name + "#"] = tensor;
  EXPECT_FALSE(DecodeUpdate(EncodeUpdate(renamed, codec, 0.5), state).ok());

  // Codec tags: unknown, empty, and the other codec's.
  EXPECT_FALSE(DecodeUpdate(WithCodecTag(update, "gzip"), state).ok());
  EXPECT_FALSE(DecodeUpdate(WithCodecTag(update, ""), state).ok());
  const std::string other = codec == "quant8" ? "topk" : "quant8";
  EXPECT_FALSE(DecodeUpdate(WithCodecTag(update, other), state).ok());
}

TEST(Quant8Test, RoundTripWithinGridResolution) {
  StateDict state = SampleState();
  auto decoded = DecodeUpdate(EncodeUpdate(state, "quant8", 1.0), state);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), state.size());
  for (const auto& [name, tensor] : state) {
    const Tensor& back = decoded->at(name);
    ASSERT_TRUE(back.SameShape(tensor)) << name;
    float lo = tensor.at(0), hi = tensor.at(0);
    for (int64_t i = 1; i < tensor.numel(); ++i) {
      lo = std::min(lo, tensor.at(i));
      hi = std::max(hi, tensor.at(i));
    }
    const float grid = (hi - lo) / 255.0f;
    for (int64_t i = 0; i < tensor.numel(); ++i) {
      EXPECT_NEAR(back.at(i), tensor.at(i), grid * 0.51f + 1e-7f)
          << name << "[" << i << "]";
    }
  }
}

TEST(Quant8Test, ShrinksWireSize) {
  // Big enough that per-tensor header overhead is amortized.
  Rng rng(9);
  StateDict state = MakeMlp({64, 64, 10}, &rng).GetStateDict();
  const Payload plain = EncodeUpdate(state, "none", 1.0);
  const Payload quantized = EncodeUpdate(state, "quant8", 1.0);
  // float32 -> ~1 byte/coefficient: at least 2.5x smaller.
  EXPECT_LT(quantized.ByteSize() * 2.5, plain.ByteSize());
}

TEST(Quant8Test, SurvivesWireCodec) {
  StateDict state = SampleState();
  auto bytes = EncodePayload(EncodeUpdate(state, "quant8", 1.0));
  auto payload = DecodePayload(bytes);
  ASSERT_TRUE(payload.ok());
  auto decoded = DecodeUpdate(*payload, state);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), state.size());
}

TEST(Quant8Test, ConstantTensorHandled) {
  StateDict state;
  state["b"] = Tensor::Full({8}, 3.0f);  // zero range
  auto decoded = DecodeUpdate(EncodeUpdate(state, "quant8", 1.0), state);
  ASSERT_TRUE(decoded.ok());
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(decoded->at("b").at(i), 3.0f, 1e-5f);
  }
}

TEST(Quant8Test, RejectsForeignPayload) {
  const StateDict state = SampleState();
  EXPECT_FALSE(DecodeUpdate(WithCodecTag(Payload{}, "something_else"), state)
                   .ok());
  // Tagged quant8 but carrying nothing of the signature.
  EXPECT_FALSE(DecodeUpdate(EncodeUpdate({}, "quant8", 1.0), state).ok());
}

TEST(Quant8Test, RejectsHostileShapesNamesAndCodecs) {
  ExpectHostileUpdatesRejected("quant8");
}

TEST(TopKTest, KeepsLargestMagnitudes) {
  StateDict state;
  state["w"] = Tensor::FromVector({0.1f, -5.0f, 0.2f, 4.0f, -0.05f});
  auto decoded = DecodeUpdate(EncodeUpdate(state, "topk", 0.4), state);
  ASSERT_TRUE(decoded.ok());
  const Tensor& back = decoded->at("w");
  EXPECT_FLOAT_EQ(back.at(1), -5.0f);
  EXPECT_FLOAT_EQ(back.at(3), 4.0f);
  EXPECT_FLOAT_EQ(back.at(0), 0.0f);
  EXPECT_FLOAT_EQ(back.at(2), 0.0f);
  EXPECT_FLOAT_EQ(back.at(4), 0.0f);
}

TEST(TopKTest, FullKeepIsLossless) {
  StateDict state = SampleState(2);
  auto decoded = DecodeUpdate(EncodeUpdate(state, "topk", 1.0), state);
  ASSERT_TRUE(decoded.ok());
  for (const auto& [name, tensor] : state) {
    EXPECT_TRUE(decoded->at(name) == tensor) << name;
  }
}

TEST(TopKTest, AtLeastOneCoordinatePerTensor) {
  StateDict state;
  state["w"] = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  auto decoded = DecodeUpdate(EncodeUpdate(state, "topk", 1e-9), state);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FLOAT_EQ(decoded->at("w").at(2), 3.0f);  // largest survives
}

TEST(TopKTest, ShrinksWireSizeAtLowKeepFrac) {
  StateDict state = SampleState(3);
  const Payload plain = EncodeUpdate(state, "none", 1.0);
  const Payload sparse = EncodeUpdate(state, "topk", 0.1);
  EXPECT_LT(sparse.ByteSize(), plain.ByteSize());
}

TEST(TopKTest, PreservesErrorBoundForAveraging) {
  // The dropped mass is bounded by the kept fraction: reconstruction
  // error norm is strictly below the original norm.
  StateDict state = SampleState(4);
  auto decoded = DecodeUpdate(EncodeUpdate(state, "topk", 0.3), state);
  ASSERT_TRUE(decoded.ok());
  double err_sq = 0.0, total_sq = 0.0;
  for (const auto& [name, tensor] : state) {
    err_sq += SquaredNorm(Sub(tensor, decoded->at(name)));
    total_sq += SquaredNorm(tensor);
  }
  EXPECT_LT(err_sq, total_sq);
}

TEST(TopKTest, RejectsHostileShapesNamesAndCodecs) {
  ExpectHostileUpdatesRejected("topk");
}

TEST(TopKTest, RejectsIndexOutOfRange) {
  // Keep every coordinate, then claim a one-element tensor: the indices
  // past it must be refused, not written.
  StateDict state;
  state["w"] = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  StateDict one;
  one["w"] = Tensor::FromVector({0.0f});
  const Payload update = EncodeUpdate(state, "topk", 1.0);
  const Payload claims_one = EditTensors(update, [](Tensor* t) {
    if (t->numel() == 1) t->at(0) = 1.0f;  // the shape entry: [3] -> [1]
  });
  EXPECT_FALSE(DecodeUpdate(claims_one, one).ok());
}

TEST(RawUpdateTest, ComesBackAsSentWithoutScreening) {
  // Raw tensors are the guard's to screen: a raw update decodes as sent,
  // whatever the signature.
  const StateDict state = SampleState(6);
  StateDict other;
  other["x"] = Tensor::FromVector({1.0f});
  auto decoded = DecodeUpdate(EncodeUpdate(state, "none", 1.0), other);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value() == state);
}

TEST(RawUpdateTest, RawBytesMatchTheRawPayload) {
  const StateDict state = SampleState(7);
  EXPECT_EQ(RawUpdateBytes(state),
            EncodeUpdate(state, "none", 1.0).ByteSize());
}

}  // namespace
}  // namespace fedscope
