#ifndef FEDSCOPE_COMM_COMPRESSION_H_
#define FEDSCOPE_COMM_COMPRESSION_H_

#include <cstdint>
#include <string>

#include "fedscope/comm/message.h"
#include "fedscope/nn/model.h"

namespace fedscope {

/// The model-update format (a message-transform plug-in, in the spirit of
/// §4.1's operator plug-ins); nothing else knows an update's payload keys.
/// `codec` "quant8" sends int8 codes plus a per-tensor (min, max) range,
/// ~numel bytes instead of 4*numel; "topk" sends the `keep_frac` fraction
/// of coordinates with the largest magnitude (at least 1 per tensor) as
/// (index, value) pairs, the rest decoding as exact zeros; anything else
/// sends the raw tensors. Both lossy codecs are unbiased enough for
/// FedAvg-style averaging; tests bound the error and the wire-size savings.
Payload EncodeUpdate(const StateDict& delta, const std::string& codec,
                     double keep_frac);

/// Reads an update built by EncodeUpdate. Raw tensors come back as sent,
/// for the ingress guard to screen. Compressed entries must name exactly
/// the tensors of `signature` (the broadcast model) with its shapes, checked
/// before anything is allocated: a hostile shape (NaN, negative, inflated),
/// a name outside the signature, a code or index length or index that does
/// not fit, or an unknown codec returns a Status, never an abort.
Result<StateDict> DecodeUpdate(const Payload& payload,
                               const StateDict& signature);

/// Payload::ByteSize of `delta` encoded raw, without building the payload.
int64_t RawUpdateBytes(const StateDict& delta);

}  // namespace fedscope

#endif  // FEDSCOPE_COMM_COMPRESSION_H_
