#include "nn/gemm.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/telemetry.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define ACOBE_GEMM_X86 1
#endif

namespace acobe::nn {

namespace {

// Micro-tile geometry: kMR C-rows by kNR C-columns per full tile (one
// j-panel is kNR wide).
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 16;

// Full-tile micro-kernel: computes a kMR x kNR tile of C. `ars`/`als`
// are A's row/term strides, so one kernel serves both the plain and the
// A-transposed layouts.
using MicroKernelFn = void (*)(std::size_t k, const float* a,
                               std::size_t ars, std::size_t als,
                               const float* b, std::size_t ldb, float* c,
                               std::size_t ldc, const float* bias);

// ---------------------------------------------------------------------------
// Telemetry: per-call flop accounting plus an achieved-GFLOP/s histogram
// bucketed by shape class (total flops), so the end-of-run report shows
// math-core throughput next to the span timings. Costs two clock reads
// per GEMM when metrics are enabled, nothing when disabled.
// ---------------------------------------------------------------------------
#ifndef ACOBE_TELEMETRY_DISABLED
class GemmTimer {
 public:
  GemmTimer() : enabled_(telemetry::MetricsEnabled()), start_ns_(0) {
    if (!enabled_) return;
    // Clock reads cost ~20-30 ns, comparable to a small layer's whole
    // GEMM; sample 1 call in 8 (per thread) so per-call overhead stays
    // negligible while the GFLOP/s histograms still fill up. The
    // calls/flops counters below are exact — only timing is sampled.
    thread_local std::uint32_t tick = 0;
    sampled_ = (tick++ % 8) == 0;
    if (sampled_) start_ns_ = telemetry::NowNs();
  }

  void Finish(std::size_t m, std::size_t k, std::size_t n) const {
    if (!enabled_) return;
    const std::uint64_t flops = 2ull * m * k * n;
    ACOBE_COUNT("nn.gemm.calls", 1);
    ACOBE_COUNT("nn.gemm.flops", flops);
    if (!sampled_) return;
    const std::uint64_t dur_ns = telemetry::NowNs() - start_ns_;
    if (dur_ns == 0) return;
    // flops per nanosecond == GFLOP/s.
    const double gflops =
        static_cast<double>(flops) / static_cast<double>(dur_ns);
    static telemetry::Histogram& lt1m =
        telemetry::GetHistogram("nn.gemm.gflops.lt1M");
    static telemetry::Histogram& lt8m =
        telemetry::GetHistogram("nn.gemm.gflops.1M-8M");
    static telemetry::Histogram& lt64m =
        telemetry::GetHistogram("nn.gemm.gflops.8M-64M");
    static telemetry::Histogram& ge64m =
        telemetry::GetHistogram("nn.gemm.gflops.ge64M");
    (flops < 1000000       ? lt1m
     : flops < 8000000     ? lt8m
     : flops < 64000000    ? lt64m
                           : ge64m)
        .Record(gflops);
  }

 private:
  bool enabled_;
  bool sampled_ = false;
  std::uint64_t start_ns_;
};
#else
struct GemmTimer {
  void Finish(std::size_t, std::size_t, std::size_t) const {}
};
#endif

// ---------------------------------------------------------------------------
// Blocked kernels.
//
// One tile driver: C is walked in kMR x kNR tiles; for each tile a
// micro-kernel runs the full k loop with the tile's accumulators live in
// registers, then writes C once (plus the optional fused bias).
// A[row r of the tile, term l] is addressed as a[r * ars + l * als],
// which expresses both the plain (ars = lda, als = 1) and the
// A-transposed (ars = 1, als = lda) layouts without separate kernels.
//
// Accumulation-order invariant for every kernel here (Edge, Full, Avx2;
// see gemm.h): each C element owns one accumulator chain, added to in
// ascending-l order, multiply and add as separate roundings.
// Vectorization is across j (independent elements), never across k, so
// the blocked results are bit-identical to the scalar reference kernels.
// ---------------------------------------------------------------------------

// Portable micro-kernel, runtime tile bounds (mr <= kMR, nr <= kNR):
// handles edge tiles and serves as the full-tile fallback on CPUs
// without AVX2 (the fixed-bound copy below auto-vectorizes).
void MicroKernelEdge(std::size_t mr, std::size_t nr, std::size_t k,
                     const float* __restrict a, std::size_t ars,
                     std::size_t als, const float* __restrict b,
                     std::size_t ldb, float* __restrict c, std::size_t ldc,
                     const float* __restrict bias) {
  float acc[kMR][kNR];
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) acc[r][j] = 0.0f;
  }
  for (std::size_t l = 0; l < k; ++l) {
    const float* __restrict brow = b + l * ldb;
    for (std::size_t r = 0; r < mr; ++r) {
      const float av = a[r * ars + l * als];
      for (std::size_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    float* __restrict crow = c + r * ldc;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r][j] + bias[j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
    }
  }
}

// Full-tile portable micro-kernel: same code with compile-time bounds so
// the j loops auto-vectorize under the baseline build flags.
void MicroKernelFull(std::size_t k, const float* __restrict a,
                     std::size_t ars, std::size_t als,
                     const float* __restrict b, std::size_t ldb,
                     float* __restrict c, std::size_t ldc,
                     const float* __restrict bias) {
  float acc[kMR][kNR] = {};
  for (std::size_t l = 0; l < k; ++l) {
    const float* __restrict brow = b + l * ldb;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = a[r * ars + l * als];
      for (std::size_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < kMR; ++r) {
    float* __restrict crow = c + r * ldc;
    if (bias != nullptr) {
      for (std::size_t j = 0; j < kNR; ++j) crow[j] = acc[r][j] + bias[j];
    } else {
      for (std::size_t j = 0; j < kNR; ++j) crow[j] = acc[r][j];
    }
  }
}

#ifdef ACOBE_GEMM_X86
// AVX2 full-tile micro-kernel: 8 ymm accumulators (4 rows x 2 vectors),
// one broadcast per A term. Deliberately multiply-then-add -- the
// "avx2" target (without "fma") cannot even emit fused multiply-add --
// so every term is rounded exactly like the scalar kernels.
__attribute__((target("avx2"))) void MicroKernelAvx2(
    std::size_t k, const float* __restrict a, std::size_t ars,
    std::size_t als, const float* __restrict b, std::size_t ldb,
    float* __restrict c, std::size_t ldc, const float* __restrict bias) {
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  for (std::size_t l = 0; l < k; ++l) {
    const float* brow = b + l * ldb;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const float* al = a + l * als;
    __m256 av = _mm256_set1_ps(al[0 * ars]);
    acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
    acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(al[1 * ars]);
    acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
    acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(al[2 * ars]);
    acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
    acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
    av = _mm256_set1_ps(al[3 * ars]);
    acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
    acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
  }
  if (bias != nullptr) {
    const __m256 bias0 = _mm256_loadu_ps(bias);
    const __m256 bias1 = _mm256_loadu_ps(bias + 8);
    acc00 = _mm256_add_ps(acc00, bias0);
    acc01 = _mm256_add_ps(acc01, bias1);
    acc10 = _mm256_add_ps(acc10, bias0);
    acc11 = _mm256_add_ps(acc11, bias1);
    acc20 = _mm256_add_ps(acc20, bias0);
    acc21 = _mm256_add_ps(acc21, bias1);
    acc30 = _mm256_add_ps(acc30, bias0);
    acc31 = _mm256_add_ps(acc31, bias1);
  }
  _mm256_storeu_ps(c + 0 * ldc, acc00);
  _mm256_storeu_ps(c + 0 * ldc + 8, acc01);
  _mm256_storeu_ps(c + 1 * ldc, acc10);
  _mm256_storeu_ps(c + 1 * ldc + 8, acc11);
  _mm256_storeu_ps(c + 2 * ldc, acc20);
  _mm256_storeu_ps(c + 2 * ldc + 8, acc21);
  _mm256_storeu_ps(c + 3 * ldc, acc30);
  _mm256_storeu_ps(c + 3 * ldc + 8, acc31);
}
#endif

// ---------------------------------------------------------------------------
// Pack arena: per-thread scratch for GemmTransB's B-transpose staging,
// replacing the old unbounded `thread_local std::vector` (whose
// retained capacity was invisible to the health plane). Every capacity
// change flows through a process-wide byte counter mirrored into the
// nn.pack_bytes gauge, and a request far below the retained capacity
// shrinks the buffer so one huge pack early in a run does not pin
// memory for its whole lifetime.
// ---------------------------------------------------------------------------

std::atomic<std::size_t> g_pack_bytes{0};

void AccountPackBytes(std::size_t old_cap_bytes, std::size_t new_cap_bytes) {
  std::size_t total;
  if (new_cap_bytes >= old_cap_bytes) {
    const std::size_t delta = new_cap_bytes - old_cap_bytes;
    total = g_pack_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  } else {
    const std::size_t delta = old_cap_bytes - new_cap_bytes;
    total = g_pack_bytes.fetch_sub(delta, std::memory_order_relaxed) - delta;
  }
  ACOBE_GAUGE_SET("nn.pack_bytes", total);
}

class PackArena {
 public:
  ~PackArena() { Release(); }

  float* Acquire(std::size_t floats) {
    // Shrink when holding > 4x the request past 1 MiB: re-allocation is
    // rare (model shapes are stable within a run) and bounded retention
    // is what the health plane's RSS story needs.
    constexpr std::size_t kShrinkFloor = (1u << 20) / sizeof(float);
    if (buf_.capacity() > kShrinkFloor && buf_.capacity() / 4 > floats) {
      const std::size_t old_bytes = buf_.capacity() * sizeof(float);
      std::vector<float>().swap(buf_);
      AccountPackBytes(old_bytes, 0);
      ACOBE_COUNT("nn.pack_shrinks", 1);
    }
    if (buf_.size() < floats) {
      const std::size_t old_bytes = buf_.capacity() * sizeof(float);
      buf_.resize(floats);
      AccountPackBytes(old_bytes, buf_.capacity() * sizeof(float));
    }
    return buf_.data();
  }

  void Release() {
    if (buf_.capacity() == 0) return;
    AccountPackBytes(buf_.capacity() * sizeof(float), 0);
    std::vector<float>().swap(buf_);
  }

 private:
  std::vector<float> buf_;
};

thread_local PackArena t_pack_arena;

// ---------------------------------------------------------------------------
// Blocked tile driver, serial panel walk + optional panel-parallel grid.
// ---------------------------------------------------------------------------

// Runs the i-tile loop for one j-panel over rows [i_begin, i_end).
// i_begin is always a kMR multiple (chunk heights are), so tiles never
// split across workers.
void PanelRows(std::size_t i_begin, std::size_t i_end, std::size_t j0,
               std::size_t nr, std::size_t k, std::size_t n, const float* pa,
               std::size_t ars, std::size_t als, const float* pb, float* pc,
               const float* bias, MicroKernelFn full) {
  const float* bpanel = pb + j0;
  const float* bias_panel = bias == nullptr ? nullptr : bias + j0;
  for (std::size_t i0 = i_begin; i0 < i_end; i0 += kMR) {
    const std::size_t mr = i_end - i0 < kMR ? i_end - i0 : kMR;
    const float* atile = pa + i0 * ars;
    float* ctile = pc + i0 * n + j0;
    if (mr == kMR && nr == kNR) {
      full(k, atile, ars, als, bpanel, n, ctile, n, bias_panel);
    } else {
      MicroKernelEdge(mr, nr, k, atile, ars, als, bpanel, n, ctile, n,
                      bias_panel);
    }
  }
}

// The full-tile kernel for this CPU: no-FMA AVX2 where available,
// portable otherwise (both bit-identical). The choice goes through
// ActiveSimdName(), the probe that stamps BuildInfo::simd, so the
// recorded build identity always names the kernel that ran.
MicroKernelFn SelectFullTileKernel() {
#ifdef ACOBE_GEMM_X86
  if (std::strcmp(ActiveSimdName(), "avx2") == 0) return MicroKernelAvx2;
#endif
  return MicroKernelFull;
}

// Below this many flops (2*m*k*n) a GEMM always runs serial: the
// pool's wake/join latency would dominate. 4M flops is roughly a
// 128x128x128 multiply — the small per-layer training GEMMs stay
// serial, the scoring/packing heavies go wide.
constexpr std::uint64_t kParallelFlopFloor = 4u << 20;

// Rows per i-chunk when the j-panel supply alone is too thin to feed
// the pool. Must be a kMR multiple.
constexpr std::size_t kRowChunk = 64;

// C (m x n, row-major, fully overwritten) = A * B (+ bias per row), with
// A addressed as a[r * ars + l * als]. When NnThreads() > 1, the caller
// is not already a pool worker, and the shape is heavy enough, the
// (j-panel x i-chunk) grid is spread over the shared thread pool.
void BlockedGemm(std::size_t m, std::size_t k, std::size_t n, const float* pa,
                 std::size_t ars, std::size_t als, const float* pb, float* pc,
                 const float* bias) {
  static const MicroKernelFn full = SelectFullTileKernel();
  const std::size_t panels = (n + kNR - 1) / kNR;
  const int threads = NnThreads();
  const std::uint64_t flops = 2ull * m * k * n;
  if (threads > 1 && !OnWorkerThread() && flops >= kParallelFlopFloor &&
      panels >= 2) {
    // Task grid: j-panels, split further into i-chunks only when the
    // panel supply alone cannot feed every worker twice over (B-panel
    // reuse inside a task is worth keeping when it can). Workers own
    // disjoint C regions and every tile runs start-to-finish on one
    // worker, so the result is bit-identical to the serial walk below.
    std::size_t ichunks = 1;
    if (panels < 2 * static_cast<std::size_t>(threads)) {
      ichunks = (m + kRowChunk - 1) / kRowChunk;
    }
    const std::size_t rows_per_chunk = ichunks == 1 ? m : kRowChunk;
    ACOBE_COUNT("nn.gemm.parallel_calls", 1);
    ParallelFor(
        0, static_cast<int>(panels * ichunks), threads, [&](int t) {
          const std::size_t p = static_cast<std::size_t>(t) / ichunks;
          const std::size_t ic = static_cast<std::size_t>(t) % ichunks;
          const std::size_t j0 = p * kNR;
          const std::size_t nr = n - j0 < kNR ? n - j0 : kNR;
          const std::size_t i_begin = ic * rows_per_chunk;
          const std::size_t i_end =
              m - i_begin < rows_per_chunk ? m : i_begin + rows_per_chunk;
          PanelRows(i_begin, i_end, j0, nr, k, n, pa, ars, als, pb, pc, bias,
                    full);
        });
    return;
  }
  // Serial walk: the j-panel loop is outermost so the k x kNR panel of
  // B stays cache-resident while A streams past it once per panel.
  for (std::size_t j0 = 0; j0 < n; j0 += kNR) {
    const std::size_t nr = n - j0 < kNR ? n - j0 : kNR;
    PanelRows(0, m, j0, nr, k, n, pa, ars, als, pb, pc, bias, full);
  }
}

inline void AssertNoAlias(const Tensor& c, MatSpan a, MatSpan b) {
#ifndef NDEBUG
  assert(c.data() != a.data && c.data() != b.data);
#else
  (void)c;
  (void)a;
  (void)b;
#endif
}

// GEMM worker threads. 0 = "not yet resolved"; resolution consults
// ACOBE_NN_THREADS once, defaulting to 1 (serial) — the outer
// per-aspect/per-user parallelism owns the cores unless the user hands
// them to the math core explicitly.
std::atomic<int> g_nn_threads{0};

int ResolveNnThreadsFromEnv() {
  if (const char* env = std::getenv("ACOBE_NN_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points: validate shapes, time the call, resize C, and run
// the blocked driver.
// ---------------------------------------------------------------------------

void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias) {
  if (a.cols != b.rows) throw std::invalid_argument("Gemm: shape mismatch");
  const GemmTimer timer;
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  c.ResizeUninit(m, n);
  AssertNoAlias(c, a, b);
  BlockedGemm(m, k, n, a.data, /*ars=*/k, /*als=*/1, b.data, c.data(), bias);
  timer.Finish(m, k, n);
}

void GemmTransA(MatSpan a, MatSpan b, Tensor& c) {
  if (a.rows != b.rows) {
    throw std::invalid_argument("GemmTransA: shape mismatch");
  }
  const GemmTimer timer;
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  c.ResizeUninit(m, n);
  AssertNoAlias(c, a, b);
  // C[i][j] = sum_l A[l][i] * B[l][j]: row stride through A is 1, term
  // stride is the A row length m.
  BlockedGemm(m, k, n, a.data, /*ars=*/1, /*als=*/m, b.data, c.data(),
              nullptr);
  timer.Finish(m, k, n);
}

void GemmTransB(MatSpan a, MatSpan b, Tensor& c) {
  if (a.cols != b.cols) {
    throw std::invalid_argument("GemmTransB: shape mismatch");
  }
  const GemmTimer timer;
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  c.ResizeUninit(m, n);
  AssertNoAlias(c, a, b);
  // C = A B^T has the same per-element accumulation chains as C = A Bt
  // with Bt the explicit transpose, so transposing B once (pure data
  // movement, no arithmetic) lets the blocked driver -- and its
  // vectorize-across-j micro-kernels -- run at full Gemm speed instead
  // of being stuck with scalar dot-product chains. The O(k*n) pack
  // amortizes over the O(m*k*n) math; the arena reuses the buffer
  // across calls, so it allocates during warm-up only, preserving the
  // zero-allocation train loop.
  float* bt = t_pack_arena.Acquire(k * n);
  const float* pb = b.data;
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = pb + j * k;
    for (std::size_t l = 0; l < k; ++l) bt[l * n + j] = brow[l];
  }
  BlockedGemm(m, k, n, a.data, /*ars=*/k, /*als=*/1, bt, c.data(), nullptr);
  timer.Finish(m, k, n);
}

void SetNnThreads(int threads) {
  g_nn_threads.store(threads > 0 ? threads : ResolveNnThreadsFromEnv(),
                     std::memory_order_relaxed);
}

int NnThreads() {
  int n = g_nn_threads.load(std::memory_order_relaxed);
  if (n <= 0) {
    n = ResolveNnThreadsFromEnv();
    g_nn_threads.store(n, std::memory_order_relaxed);
  }
  return n;
}

std::size_t PackBytesInUse() {
  return g_pack_bytes.load(std::memory_order_relaxed);
}

void ReleaseThreadScratch() { t_pack_arena.Release(); }

void AnnotateBuildInfo(BuildInfo& info) { info.nn_threads = NnThreads(); }

namespace reference {

void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias) {
  if (a.cols != b.rows) throw std::invalid_argument("Gemm: shape mismatch");
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  c.Resize(m, n);  // accumulates into zeroed output
  const float* pa = a.data;
  const float* pb = b.data;
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t l = 0; l < k; ++l) {
      const float av = arow[l];
      if (av == 0.0f) continue;
      const float* brow = pb + l * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  if (bias != nullptr) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += bias[j];
    }
  }
}

void GemmTransA(MatSpan a, MatSpan b, Tensor& c) {
  if (a.rows != b.rows) {
    throw std::invalid_argument("GemmTransA: shape mismatch");
  }
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  c.Resize(m, n);
  const float* pa = a.data;
  const float* pb = b.data;
  float* pc = c.data();
  // C[i][j] = sum_l A[l][i] * B[l][j]; iterate l outer for sequential reads.
  for (std::size_t l = 0; l < k; ++l) {
    const float* arow = pa + l * m;
    const float* brow = pb + l * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void GemmTransB(MatSpan a, MatSpan b, Tensor& c) {
  if (a.cols != b.cols) {
    throw std::invalid_argument("GemmTransB: shape mismatch");
  }
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  c.Resize(m, n);
  const float* pa = a.data;
  const float* pb = b.data;
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::size_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
      crow[j] = acc;
    }
  }
}

}  // namespace reference

}  // namespace acobe::nn
