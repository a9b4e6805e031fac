#ifndef FEDSCOPE_TESTING_KERNEL_FUZZ_H_
#define FEDSCOPE_TESTING_KERNEL_FUZZ_H_

#include <cstdint>

#include "fedscope/testing/oracles.h"

namespace fedscope {
namespace testing {

struct FuzzReport {
  int trials = 0;
  std::vector<Violation> violations;
};

/// Differential fuzz of the tensor kernels over random shapes: tiled
/// Gemm/GemmLda/GemmTransA/GemmTransB vs the scalar *Reference kernels
/// (exact bit equality — the determinism contract), Im2Col/Col2Im with a
/// row stride vs a naive gather/scatter, the im2col+gemm convolution
/// lowering vs the direct double-accumulating Conv2dForwardReference
/// (tolerance), the Conv2d and Linear layers' outputs and gradients vs the
/// per-image composition of the reference kernels (exact), Model::Backward
/// with its bottom input gradient skipped vs every layer's full Backward
/// (exact), the elementwise helpers vs naive loops (exact), and Krum's
/// PairwiseSquaredDistances vs its serial chains (exact).
FuzzReport FuzzKernels(uint64_t seed, int trials);

/// Fuzz of the wire codec: random valid messages must decode and
/// re-encode bit-exactly (and EncodedMessageSize must match); frame
/// split/shuffle/reassemble must restore the stream; truncated, mutated,
/// and pure-garbage frames must return Status — never crash. And of the
/// update codec: a random delta encoded raw, quant8 or topk must decode
/// into its signature, and after structural mutations a compressed update
/// must decode to a Status or to exactly the signature's shapes.
FuzzReport FuzzCodec(uint64_t seed, int trials);

}  // namespace testing
}  // namespace fedscope

#endif  // FEDSCOPE_TESTING_KERNEL_FUZZ_H_
