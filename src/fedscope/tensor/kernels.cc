#include "fedscope/tensor/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace fedscope {
namespace kernels {
namespace {

// Register tiles: kMr rows of C by a fixed width, accumulators held in
// registers across the whole k loop. A is addressed through strides
// (as_i, as_k), so the same tiles serve Gemm (as_i=lda, as_k=1) and
// GemmTransA (as_i=1, as_k=m). Each output element is an ascending-k chain
// of float adds started at 0, added to C once at the end — the scalar
// reference chain.
constexpr int64_t kMr = 8;

// GCC vector types: their arithmetic is lane-wise float arithmetic, so each
// lane runs the scalar chain. A tile row is an array of vectors no wider
// than the widest register the translation unit is compiled for (`VReg`),
// so each accumulator fits one register; with 64-byte vectors on a
// baseline x86-64 build, a ConvNet2 step ran 2.5x slower.
typedef float V4 __attribute__((vector_size(16)));
typedef float V8 __attribute__((vector_size(32)));
typedef float V16 __attribute__((vector_size(64)));
#if defined(__AVX512F__)
typedef V16 VReg;
#elif defined(__AVX__)
typedef V8 VReg;
#else
typedef V4 VReg;
#endif
// The 8-wide tile's vector: one V8, or two V4 below AVX.
typedef std::conditional_t<sizeof(VReg) >= sizeof(V8), V8, V4> VNarrow;

template <typename V>
constexpr int64_t kLanesOf = sizeof(V) / sizeof(float);

template <typename V>
V LoadV(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

// Tile of kVecs vectors V per row: 32, 16, 8 or 4 columns wide. Columns
// below `skip` are computed but not written, so a tile may overlap columns
// an earlier tile already wrote.
template <typename V, int kVecs>
void VecTile(const float* __restrict__ a, int64_t as_i, int64_t as_k,
             const float* __restrict__ b, int64_t ldb, float* __restrict__ c,
             int64_t ldc, int64_t k, int64_t skip) {
  constexpr int64_t kLanes = kLanesOf<V>;
  V acc[kMr][kVecs] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    V bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = LoadV<V>(brow + v * kLanes);
    for (int64_t r = 0; r < kMr; ++r) {
      const float av = a[r * as_i + kk * as_k];
      for (int v = 0; v < kVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    float* crow = c + r * ldc;
    if (skip == 0) {
      for (int v = 0; v < kVecs; ++v) {
        const V sum = LoadV<V>(crow + v * kLanes) + acc[r][v];
        std::memcpy(crow + v * kLanes, &sum, sizeof(V));
      }
    } else {
      for (int64_t j = skip; j < kLanes * kVecs; ++j) {
        crow[j] += acc[r][j / kLanes][j % kLanes];
      }
    }
  }
}

// Edge tile with runtime extents mr <= kMr and nr <= 32, accumulators in
// memory: row blocks shorter than kMr and matrices narrower than 4. Same
// chain.
void MicroTileEdge(const float* __restrict__ a, int64_t as_i, int64_t as_k,
                   const float* __restrict__ b, int64_t ldb,
                   float* __restrict__ c, int64_t ldc, int64_t k, int64_t mr,
                   int64_t nr) {
  float acc[kMr][32] = {};
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    for (int64_t r = 0; r < mr; ++r) {
      const float av = a[r * as_i + kk * as_k];
      for (int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] += acc[r][j];
  }
}

// c[m, n] += A @ b where A(i, kk) = a[i*as_i + kk*as_k], b row-major [k, n].
// Full row blocks take 32-, 16- and 8-wide tiles; a tail narrower than 8
// takes an 8-wide tile over the last 8 columns that writes only the tail.
// A matrix 4 to 7 wide takes 4-wide tiles the same way: columns 0-3, then
// the last 4 writing only columns 4 and up. MicroTileEdge covers what is
// left: row blocks shorter than kMr, and matrices narrower than 4.
void GemmStrided(int64_t m, int64_t n, int64_t k, const float* a,
                 int64_t as_i, int64_t as_k, const float* b, float* c) {
  int64_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    const float* ai = a + i * as_i;
    float* ci = c + i * n;
    int64_t j = 0;
    for (; j + 32 <= n; j += 32) {
      VecTile<VReg, 32 / kLanesOf<VReg>>(ai, as_i, as_k, b + j, n, ci + j, n,
                                         k, 0);
    }
    if (j + 16 <= n) {
      VecTile<VReg, 16 / kLanesOf<VReg>>(ai, as_i, as_k, b + j, n, ci + j, n,
                                         k, 0);
      j += 16;
    }
    if (j + 8 <= n) {
      VecTile<VNarrow, 8 / kLanesOf<VNarrow>>(ai, as_i, as_k, b + j, n,
                                              ci + j, n, k, 0);
      j += 8;
    }
    if (j < n) {
      if (n >= 8) {
        VecTile<VNarrow, 8 / kLanesOf<VNarrow>>(ai, as_i, as_k, b + n - 8, n,
                                                ci + n - 8, n, k, 8 - (n - j));
      } else if (n >= 4) {
        VecTile<V4, 1>(ai, as_i, as_k, b, n, ci, n, k, 0);
        if (n > 4) {
          VecTile<V4, 1>(ai, as_i, as_k, b + n - 4, n, ci + n - 4, n, k,
                         8 - n);
        }
      } else {
        MicroTileEdge(ai, as_i, as_k, b + j, n, ci + j, n, k, kMr, n - j);
      }
    }
  }
  if (i < m) {
    const float* ai = a + i * as_i;
    const int64_t mr = m - i;
    for (int64_t j = 0; j < n; j += 32) {
      MicroTileEdge(ai, as_i, as_k, b + j, n, c + i * n + j, n, k, mr,
                    std::min<int64_t>(32, n - j));
    }
  }
}

// Copies a rows x n block of floats between row strides ld_src and ld_dst
// as 4-float moves, the last of a row overlapping the one before it. The
// loop over rows is innermost: a loop over one contiguous run would become
// a memmove call per run, which costs more than the run on short rows.
inline void CopyBlock(const float* __restrict__ src, int64_t ld_src,
                      float* __restrict__ dst, int64_t ld_dst, int64_t rows,
                      int64_t n) {
  if (n < 4) {
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t j = 0; j < n; ++j) dst[r * ld_dst + j] = src[r * ld_src + j];
    }
    return;
  }
  for (int64_t j = 0; j < n; j += 4) {
    const int64_t at = std::min(j, n - 4);
    for (int64_t r = 0; r < rows; ++r) {
      std::memcpy(dst + r * ld_dst + at, src + r * ld_src + at, 16);
    }
  }
}

// dst[i] += src[i] for i < n, as 4-float vector adds and a scalar tail.
inline void AddRun(const float* __restrict__ src, float* __restrict__ dst,
                   int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V4 sum = LoadV<V4>(dst + i) + LoadV<V4>(src + i);
    std::memcpy(dst + i, &sum, sizeof(V4));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

// Zero-padded image copy for Im2Col and Col2Im, one per thread.
std::vector<float>& PadBuffer() {
  thread_local std::vector<float> buf;
  return buf;
}

// Reusable packing buffer for GemmTransB (single-core; thread_local keeps
// the threaded distributed hosts safe).
std::vector<float>& PackBuffer() {
  thread_local std::vector<float> buf;
  return buf;
}

// Pairwise distances. A lane group is kPairLanes pairs, held in the widest
// double vector that fits one register (as with VReg), kPairRegs of them.
typedef double D2 __attribute__((vector_size(16)));
typedef double D4 __attribute__((vector_size(32)));
typedef double D8 __attribute__((vector_size(64)));
#if defined(__AVX512F__)
typedef D8 DReg;
#elif defined(__AVX__)
typedef D4 DReg;
#else
typedef D2 DReg;
#endif
constexpr int64_t kDLanes = sizeof(DReg) / sizeof(double);
constexpr int64_t kPairLanes = 8;
constexpr int64_t kPairRegs = kPairLanes / kDLanes;
// Offsets per tile: at most kPairRegs * kDLanes = 8 accumulator registers
// on every ISA.
constexpr int kMaxOffsets = static_cast<int>(kDLanes);
// Target size of the k-major chunk, in doubles (32 KB, about an L1).
constexpr int64_t kChunkDoubles = 4096;

DReg LoadD(const double* p) {
  DReg v;
  std::memcpy(&v, p, sizeof(DReg));
  return v;
}

// One lane group (chunk columns col .. col+7) against kCount consecutive
// offsets from s0: lane l of offset s adds (x[kk][col+l] -
// x[kk][col+l+s])^2 to its accumulator for each chunk row kk in ascending
// order. acc: kCount lane groups of kPairLanes, carried across chunks.
template <int kCount>
void DistanceTile(const double* __restrict__ x, int64_t ld, int64_t rows,
                  int64_t col, int64_t s0, double* __restrict__ acc) {
  DReg sum[kCount][kPairRegs];
  for (int t = 0; t < kCount; ++t) {
    for (int64_t r = 0; r < kPairRegs; ++r) {
      sum[t][r] = LoadD(acc + t * kPairLanes + r * kDLanes);
    }
  }
  for (int64_t kk = 0; kk < rows; ++kk) {
    const double* row = x + kk * ld + col;
    DReg base[kPairRegs];
    for (int64_t r = 0; r < kPairRegs; ++r) base[r] = LoadD(row + r * kDLanes);
    for (int t = 0; t < kCount; ++t) {
      for (int64_t r = 0; r < kPairRegs; ++r) {
        const DReg diff = base[r] - LoadD(row + s0 + t + r * kDLanes);
        sum[t][r] += diff * diff;
      }
    }
  }
  for (int t = 0; t < kCount; ++t) {
    for (int64_t r = 0; r < kPairRegs; ++r) {
      std::memcpy(acc + t * kPairLanes + r * kDLanes, &sum[t][r],
                  sizeof(DReg));
    }
  }
}

using DistanceTileFn = void (*)(const double*, int64_t, int64_t, int64_t,
                                int64_t, double*);

template <int... kIndex>
constexpr std::array<DistanceTileFn, sizeof...(kIndex)> MakeDistanceTiles(
    std::integer_sequence<int, kIndex...>) {
  return {&DistanceTile<kIndex + 1>...};
}

// kDistanceTiles[c - 1] runs c offsets.
constexpr auto kDistanceTiles =
    MakeDistanceTiles(std::make_integer_sequence<int, kMaxOffsets>());

}  // namespace

void Gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c) {
  GemmStrided(m, n, k, a, /*as_i=*/k, /*as_k=*/1, b, c);
}

void GemmLda(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, float* c) {
  GemmStrided(m, n, k, a, /*as_i=*/lda, /*as_k=*/1, b, c);
}

void GemmTransA(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  GemmStrided(m, n, k, a, /*as_i=*/1, /*as_k=*/m, b, c);
}

void GemmTransB(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  // Pack b^T ([n, k] -> [k, n]) once, then reuse the row-streaming kernel.
  // Packing moves values untouched, so the accumulation chain is unchanged.
  std::vector<float>& bt = PackBuffer();
  bt.resize(static_cast<size_t>(k) * n);
  constexpr int64_t kBlock = 32;
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const int64_t j1 = std::min(n, j0 + kBlock);
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      const int64_t k1 = std::min(k, k0 + kBlock);
      for (int64_t j = j0; j < j1; ++j) {
        for (int64_t kk = k0; kk < k1; ++kk) {
          bt[kk * n + j] = b[j * k + kk];
        }
      }
    }
  }
  GemmStrided(m, n, k, a, /*as_i=*/k, /*as_k=*/1, bt.data(), c);
}

void PairwiseSquaredDistances(const float* const* rows, int64_t n, int64_t d,
                              double* dist) {
  std::fill(dist, dist + n * n, 0.0);
  // Offset s pairs row i with row i + s. Lanes run over i, so each operand
  // is one contiguous load from the k-major chunk; lane group g (rows 8g
  // .. 8g+7) needs offsets 1 .. n-1-8g. Columns n .. n+6 stay zero for the
  // lanes past the last row.
  const int64_t ld = n + kPairLanes - 1;
  const int64_t chunk = std::max<int64_t>(16, kChunkDoubles / ld);
  std::vector<double> x(static_cast<size_t>(std::min(chunk, d) * ld), 0.0);
  // acc[(g * n + s) * kPairLanes + l]: the chain of rows 8g+l and 8g+l+s.
  const int64_t groups = (n + kPairLanes - 1) / kPairLanes;
  std::vector<double> acc(static_cast<size_t>(groups * n * kPairLanes), 0.0);
  for (int64_t k0 = 0; k0 < d; k0 += chunk) {
    const int64_t kb = std::min(chunk, d - k0);
    for (int64_t c = 0; c < n; ++c) {
      const float* src = rows[c] + k0;
      for (int64_t kk = 0; kk < kb; ++kk) x[kk * ld + c] = src[kk];
    }
    for (int64_t g = 0; g < groups; ++g) {
      const int64_t last = n - 1 - g * kPairLanes;
      for (int64_t s0 = 1; s0 <= last; s0 += kMaxOffsets) {
        const int64_t count = std::min<int64_t>(kMaxOffsets, last - s0 + 1);
        kDistanceTiles[count - 1](x.data(), ld, kb, g * kPairLanes, s0,
                                  acc.data() + (g * n + s0) * kPairLanes);
      }
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = i / kPairLanes, l = i % kPairLanes;
    for (int64_t j = i + 1; j < n; ++j) {
      dist[i * n + j] = dist[j * n + i] =
          acc[(g * n + (j - i)) * kPairLanes + l];
    }
  }
}

void PairwiseSquaredDistancesReference(const float* const* rows, int64_t n,
                                       int64_t d, double* dist) {
  for (int64_t i = 0; i < n; ++i) {
    dist[i * n + i] = 0.0;
    for (int64_t j = i + 1; j < n; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < d; ++k) {
        const double diff = static_cast<double>(rows[i][k]) - rows[j][k];
        acc += diff * diff;
      }
      dist[i * n + j] = dist[j * n + i] = acc;
    }
  }
}

void Transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  // Four source rows at a time: each column then stores four adjacent
  // floats of dst.
  int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* s0 = src + r * cols;
    const float* s1 = s0 + cols;
    const float* s2 = s1 + cols;
    const float* s3 = s2 + cols;
    for (int64_t c = 0; c < cols; ++c) {
      float* d = dst + c * rows + r;
      d[0] = s0[c];
      d[1] = s1[c];
      d[2] = s2[c];
      d[3] = s3[c];
    }
  }
  for (; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

void GemmReference(int64_t m, int64_t n, int64_t k, const float* a,
                   const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] += acc;
    }
  }
}

void GemmTransAReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[kk * m + i] * b[kk * n + j];
      c[i * n + j] += acc;
    }
  }
}

void GemmTransBReference(int64_t m, int64_t n, int64_t k, const float* a,
                         const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[j * k + kk];
      c[i * n + j] += acc;
    }
  }
}

void Im2Col(const float* im, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t padding, float* cols, int64_t ld) {
  const int64_t out_h = ConvOutDim(height, kernel, padding);
  const int64_t out_w = ConvOutDim(width, kernel, padding);
  // Reads come from a zero-padded copy of the image, so every output row
  // is one run of out_w floats and the padding needs no test.
  const int64_t pad_h = height + 2 * padding, pad_w = width + 2 * padding;
  std::vector<float>& padded = PadBuffer();
  padded.assign(channels * pad_h * pad_w, 0.0f);
  for (int64_t ic = 0; ic < channels; ++ic) {
    CopyBlock(im + ic * height * width, width,
              padded.data() + (ic * pad_h + padding) * pad_w + padding, pad_w,
              height, width);
  }
  float* row = cols;
  for (int64_t ic = 0; ic < channels; ++ic) {
    for (int64_t kh = 0; kh < kernel; ++kh) {
      for (int64_t kw = 0; kw < kernel; ++kw, row += ld) {
        CopyBlock(padded.data() + (ic * pad_h + kh) * pad_w + kw, pad_w, row,
                  out_w, out_h, out_w);
      }
    }
  }
}

void Col2Im(const float* cols, int64_t ld, int64_t channels, int64_t height,
            int64_t width, int64_t kernel, int64_t padding, float* im) {
  const int64_t out_h = ConvOutDim(height, kernel, padding);
  const int64_t out_w = ConvOutDim(width, kernel, padding);
  // Accumulates into a zero-bordered copy of im, so each column-matrix row
  // adds into one run of out_w floats with no bounds test; the border
  // collects the padding cells' terms and is dropped on the way back. Each
  // element of im still receives its terms in ascending (kh, kw) order.
  const int64_t pad_h = height + 2 * padding, pad_w = width + 2 * padding;
  std::vector<float>& padded = PadBuffer();
  padded.assign(channels * pad_h * pad_w, 0.0f);
  for (int64_t ic = 0; ic < channels; ++ic) {
    CopyBlock(im + ic * height * width, width,
              padded.data() + (ic * pad_h + padding) * pad_w + padding, pad_w,
              height, width);
  }
  // Channels run inside (kh, kw): consecutive kw add into runs that
  // overlap by all but one float, and a whole pass over the channels
  // between them lets each store land before the overlapping load.
  for (int64_t kh = 0; kh < kernel; ++kh) {
    for (int64_t kw = 0; kw < kernel; ++kw) {
      for (int64_t ic = 0; ic < channels; ++ic) {
        const float* in = cols + ((ic * kernel + kh) * kernel + kw) * ld;
        float* dst = padded.data() + (ic * pad_h + kh) * pad_w + kw;
        for (int64_t oh = 0; oh < out_h; ++oh, dst += pad_w, in += out_w) {
          AddRun(in, dst, out_w);
        }
      }
    }
  }
  for (int64_t ic = 0; ic < channels; ++ic) {
    CopyBlock(padded.data() + (ic * pad_h + padding) * pad_w + padding, pad_w,
              im + ic * height * width, width, height, width);
  }
}

void Conv2dForwardReference(const float* x, const float* weight,
                            const float* bias, int64_t in_c, int64_t in_h,
                            int64_t in_w, int64_t out_c, int64_t kernel,
                            int64_t padding, float* y) {
  const int64_t out_h = ConvOutDim(in_h, kernel, padding);
  const int64_t out_w = ConvOutDim(in_w, kernel, padding);
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t oh = 0; oh < out_h; ++oh) {
      for (int64_t ow = 0; ow < out_w; ++ow) {
        double acc = bias[oc];
        for (int64_t ic = 0; ic < in_c; ++ic) {
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = oh + kh - padding;
            if (ih < 0 || ih >= in_h) continue;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t iw = ow + kw - padding;
              if (iw < 0 || iw >= in_w) continue;
              acc += x[(ic * in_h + ih) * in_w + iw] *
                     weight[((oc * in_c + ic) * kernel + kh) * kernel + kw];
            }
          }
        }
        y[(oc * out_h + oh) * out_w + ow] = static_cast<float>(acc);
      }
    }
  }
}

void Conv2dBackwardReference(const float* x, const float* weight,
                             const float* grad_out, int64_t in_c,
                             int64_t in_h, int64_t in_w, int64_t out_c,
                             int64_t kernel, int64_t padding,
                             float* weight_grad, float* bias_grad,
                             float* grad_in) {
  const int64_t out_h = ConvOutDim(in_h, kernel, padding);
  const int64_t out_w = ConvOutDim(in_w, kernel, padding);
  for (int64_t oc = 0; oc < out_c; ++oc) {
    for (int64_t oh = 0; oh < out_h; ++oh) {
      for (int64_t ow = 0; ow < out_w; ++ow) {
        const float g = grad_out[(oc * out_h + oh) * out_w + ow];
        bias_grad[oc] += g;
        for (int64_t ic = 0; ic < in_c; ++ic) {
          for (int64_t kh = 0; kh < kernel; ++kh) {
            const int64_t ih = oh + kh - padding;
            if (ih < 0 || ih >= in_h) continue;
            for (int64_t kw = 0; kw < kernel; ++kw) {
              const int64_t iw = ow + kw - padding;
              if (iw < 0 || iw >= in_w) continue;
              const int64_t wi = ((oc * in_c + ic) * kernel + kh) * kernel + kw;
              weight_grad[wi] += g * x[(ic * in_h + ih) * in_w + iw];
              grad_in[(ic * in_h + ih) * in_w + iw] += g * weight[wi];
            }
          }
        }
      }
    }
  }
}

void MaxPool2x2(const float* x, int64_t planes, int64_t in_h, int64_t in_w,
                float* y, int64_t* argmax) {
  const int64_t out_h = in_h / 2, out_w = in_w / 2;
  for (int64_t plane = 0; plane < planes; ++plane) {
    for (int64_t oh = 0; oh < out_h; ++oh) {
      const int64_t base = (plane * in_h + oh * 2) * in_w;
      const float* r0 = x + base;
      const float* r1 = r0 + in_w;
      // Selects instead of branches: the compare outcome on real
      // activations is a coin flip, which a branch predictor cannot learn.
      for (int64_t ow = 0; ow < out_w; ++ow) {
        const int64_t i0 = ow * 2;
        float best = r0[i0];
        int64_t at = base + i0;
        bool gt = r0[i0 + 1] > best;
        best = gt ? r0[i0 + 1] : best;
        at = gt ? base + i0 + 1 : at;
        gt = r1[i0] > best;
        best = gt ? r1[i0] : best;
        at = gt ? base + in_w + i0 : at;
        gt = r1[i0 + 1] > best;
        best = gt ? r1[i0 + 1] : best;
        at = gt ? base + in_w + i0 + 1 : at;
        y[ow] = best;
        argmax[ow] = at;
      }
      y += out_w;
      argmax += out_w;
    }
  }
}

void ReluForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::max(x[i], 0.0f);
}

void ReluBackward(const float* x, float* grad, int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad[i] = x[i] > 0.0f ? grad[i] : 0.0f;
}

void TanhForward(const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void TanhBackward(const float* y, float* grad, int64_t n) {
  for (int64_t i = 0; i < n; ++i) grad[i] *= 1.0f - y[i] * y[i];
}

void AddColBias(float* y, const float* bias, int64_t rows, int64_t cols) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = y + r * cols;
    for (int64_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void ColSumsAccum(const float* x, int64_t rows, int64_t cols, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    for (int64_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

}  // namespace kernels
}  // namespace fedscope
