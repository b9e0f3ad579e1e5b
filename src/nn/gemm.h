#pragma once

// General matrix multiplication entry points used by the dense layers.
// C = A(op) * B(op), with A (m x k), B (k x n), C (m x n) after ops.
//
// These free functions validate shapes, account telemetry, and run one
// kernel family: cache-blocked, register-tiled GEMM with a 4x16
// micro-kernel driven over contiguous n-panels of B. The full-tile
// kernel is chosen once from the CPU -- no-FMA AVX2 where the CPU
// supports it, a portable auto-vectorized loop otherwise -- through the
// same probe that stamps BuildInfo::simd. Large GEMMs are optionally
// panel-parallel over the shared thread pool when SetNnThreads grants
// workers.
//
// Determinism contract: every output element accumulates its k terms in
// ascending-l order into a single accumulator chain, exactly like the
// original scalar kernels (kept below under reference::), and the AVX2
// path uses separate multiply and add (never FMA; gemm.cpp also builds
// with -ffp-contract=off). Threaded runs assign every output tile
// start-to-finish to one worker, so results are bit-identical to the
// scalar reference on every shape at every thread count -- pinned by
// tests/gemm_test.cpp and tests/nn_parallel_test.cpp -- which is what
// keeps trained models and score grids reproducible across kernel
// generations and thread counts.
//
// The output tensor is resized with ResizeUninit and fully written
// (write-then-accumulate): kernels do not depend on Tensor::Resize's
// zero-fill. When `bias` (length n) is non-null, Gemm adds it to every
// output row in the write-back epilogue, fusing Dense's bias add into
// the GEMM at identical arithmetic (one add per element, after the
// k-chain).
//
// Scratch: GemmTransB stages B^T in a per-thread pack arena, accounted
// in the nn.pack_bytes gauge and shrunk when a request is far below the
// retained capacity.

#include <cstddef>

#include "common/version.h"
#include "nn/tensor.h"

namespace acobe::nn {

/// C = A * B (+ bias per row). Shapes: A (m,k), B (k,n), C resized to
/// (m,n); bias, when given, has n elements.
void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias = nullptr);

/// C = A^T * B. Shapes: A (k,m), B (k,n), C resized to (m,n).
void GemmTransA(MatSpan a, MatSpan b, Tensor& c);

/// C = A * B^T. Shapes: A (m,k), B (n,k), C resized to (m,n).
void GemmTransB(MatSpan a, MatSpan b, Tensor& c);

/// Worker threads for panel-parallel GEMM. 0 = the ACOBE_NN_THREADS
/// environment variable if set and positive, else 1 (serial). The
/// resolved count caps at the panel supply per call; callers already
/// inside a worker thread always run serial GEMMs (no nested pools).
void SetNnThreads(int threads);

/// The resolved GEMM thread count (>= 1).
int NnThreads();

/// Bytes currently held by all per-thread pack arenas (process-wide;
/// mirrored in the nn.pack_bytes gauge when metrics are enabled).
std::size_t PackBytesInUse();

/// Frees the calling thread's pack arena immediately (it re-grows on
/// demand). Worker threads release automatically at thread exit.
void ReleaseThreadScratch();

/// Stamps the resolved GEMM thread count onto a BuildInfo. Tools that
/// link the NN library call this so their --version output and ledger
/// manifests record it next to the SIMD dispatch.
void AnnotateBuildInfo(BuildInfo& info);

namespace reference {

// The original scalar triple-loop kernels, kept as the parity baseline
// for tests/gemm_test.cpp and the BM_GemmRef benchmarks. Same
// signatures and accumulation order as the blocked kernels above.
void Gemm(MatSpan a, MatSpan b, Tensor& c, const float* bias = nullptr);
void GemmTransA(MatSpan a, MatSpan b, Tensor& c);
void GemmTransB(MatSpan a, MatSpan b, Tensor& c);

}  // namespace reference

}  // namespace acobe::nn
