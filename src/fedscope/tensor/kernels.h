#ifndef FEDSCOPE_TENSOR_KERNELS_H_
#define FEDSCOPE_TENSOR_KERNELS_H_

#include <cstdint>

namespace fedscope {
namespace kernels {

// ---------------------------------------------------------------------------
// Deterministic single-core BLAS-lite. Raw-pointer kernels behind Tensor ops
// and the NN layers; this translation unit is compiled with the widest SIMD
// the host supports (see src/CMakeLists.txt) but with FP contraction off.
//
// Determinism contract: every output element is a sum over the reduction
// index k in ascending order, accumulated in float, with no fused
// multiply-add. Vectorizing across *output* elements never reorders a
// per-element chain, so results are bit-identical across vector widths
// (SSE2/AVX2/AVX-512) and match the scalar *Reference kernels exactly.
// ---------------------------------------------------------------------------

/// c += a @ b. a: [m, k] row-major, b: [k, n] row-major, c: [m, n] row-major.
/// Caller zero-initializes c for a plain product.
void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c);

/// Gemm whose a rows start lda >= k floats apart (a block of a wider
/// matrix); b and c are as in Gemm.
void GemmLda(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, float* c);

/// c += a^T @ b. a: [k, m] row-major (so a^T is [m, k]), b: [k, n], c: [m, n].
void GemmTransA(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c);

/// c += a @ b^T. a: [m, k], b: [n, k] row-major (so b^T is [k, n]), c: [m, n].
void GemmTransB(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c);

/// Unblocked scalar implementations of the same accumulation order; the
/// equivalence oracle for the tiled kernels (tests assert exact equality).
void GemmReference(int64_t m, int64_t n, int64_t k, const float* a,
                   const float* b, float* c);
void GemmTransAReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c);
void GemmTransBReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c);

/// Squared Euclidean distances between n rows of d floats into dist
/// [n, n]: for i < j, dist[i*n + j] = dist[j*n + i] is a double chain
/// from 0 over ascending k of ((double)rows[i][k] - rows[j][k])^2, one
/// chain per pair, no fused multiply-add; the diagonal is 0. Pairs run
/// side by side as vector lanes over a k-major copy of the rows.
void PairwiseSquaredDistances(const float* const* rows, int64_t n, int64_t d,
                              double* dist);
/// The same chains, one pair after another: the oracle for the above.
void PairwiseSquaredDistancesReference(const float* const* rows, int64_t n,
                                       int64_t d, double* dist);

/// dst = src^T: src [rows, cols] row-major, dst [cols, rows] row-major.
void Transpose(const float* src, int64_t rows, int64_t cols, float* dst);

// ---------------------------------------------------------------------------
// Convolution lowering (stride 1, symmetric zero padding).
// ---------------------------------------------------------------------------

/// Output spatial extent of a stride-1 convolution.
inline int64_t ConvOutDim(int64_t in, int64_t kernel, int64_t padding) {
  return in + 2 * padding - kernel + 1;
}

/// Lowers one [channels, height, width] image to a [channels*kernel*kernel,
/// out_h*out_w] column matrix whose rows start ld >= out_h*out_w floats
/// apart, so a chunk of images can share one matrix, image i at column
/// i*out_h*out_w. Zero padding is materialized as zeros; the image's
/// columns are fully overwritten.
void Im2Col(const float* im, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t padding, float* cols, int64_t ld);

/// Inverse scatter of Im2Col: accumulates the column matrix (row stride ld)
/// back into the [channels, height, width] image (`im` += ...; padding
/// cells dropped).
void Col2Im(const float* cols, int64_t ld, int64_t channels, int64_t height,
            int64_t width, int64_t kernel, int64_t padding, float* im);

/// Direct 7-loop convolution kernels (the pre-im2col implementation), kept
/// as the numerical reference for Conv2d equivalence tests. Accumulates in
/// double like the original. y: [out_c, out_h*out_w] for one image.
void Conv2dForwardReference(const float* x, const float* weight,
                            const float* bias, int64_t in_c, int64_t in_h,
                            int64_t in_w, int64_t out_c, int64_t kernel,
                            int64_t padding, float* y);

/// Direct convolution backward for one image: accumulates into weight_grad
/// [out_c, in_c, k, k], bias_grad [out_c] and grad_in [in_c, in_h, in_w].
/// grad_out: [out_c, out_h*out_w].
void Conv2dBackwardReference(const float* x, const float* weight,
                             const float* grad_out, int64_t in_c,
                             int64_t in_h, int64_t in_w, int64_t out_c,
                             int64_t kernel, int64_t padding,
                             float* weight_grad, float* bias_grad,
                             float* grad_in);

// ---------------------------------------------------------------------------
// Fused elementwise helpers (pointer loops the compiler vectorizes).
// ---------------------------------------------------------------------------

/// 2x2 stride-2 max pooling over `planes` [in_h, in_w] planes (odd trailing
/// rows/columns dropped): y[plane, oh, ow] is the window's maximum and
/// argmax[...] its flat index into x. Cells are visited (0,0), (0,1),
/// (1,0), (1,1) and only a strictly greater value replaces the best, so a
/// tie or a NaN keeps the earlier cell.
void MaxPool2x2(const float* x, int64_t planes, int64_t in_h, int64_t in_w,
                float* y, int64_t* argmax);

/// y[i] = max(x[i], 0).
void ReluForward(const float* x, float* y, int64_t n);
/// grad[i] = x[i] > 0 ? grad[i] : 0 (in place; x is the forward input).
void ReluBackward(const float* x, float* grad, int64_t n);
/// y[i] = tanh(x[i]).
void TanhForward(const float* x, float* y, int64_t n);
/// grad[i] *= 1 - y[i]^2 (in place; y is the forward output).
void TanhBackward(const float* y, float* grad, int64_t n);
/// y[r*cols + c] += bias[c] for every row r (Linear bias).
void AddColBias(float* y, const float* bias, int64_t rows, int64_t cols);
/// out[c] += sum_r x[r*cols + c], rows in ascending order (Linear and
/// Conv2d bias grads).
void ColSumsAccum(const float* x, int64_t rows, int64_t cols, float* out);

}  // namespace kernels
}  // namespace fedscope

#endif  // FEDSCOPE_TENSOR_KERNELS_H_
