#pragma once

// Deterministic mini-batch trainer for reconstruction models.
//
// Two entry tiers, both producing bit-identical parameters for a given
// (net, data, config) because every model consumes only its own
// seed-derived RNG streams and its own accumulation order:
//   TrainReconstruction — one model, start to finish.
//   TrainStream         — a batch of models through one shared training
//                         context: serial callers run the jobs one after
//                         another over a single reused workspace (warm
//                         caches, zero per-model buffer re-allocation);
//                         parallel callers get job-level fan-out over the
//                         shared thread pool with per-worker workspaces.
//                         A job builds its data on the worker when it
//                         starts, so a stream holds at most one batch
//                         per worker.

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/optimizer.h"
#include "nn/sequential.h"

namespace acobe::nn {

struct TrainConfig {
  int epochs = 30;
  std::size_t batch_size = 64;
  std::uint64_t seed = 42;
  /// Stop when epoch loss improves by less than `min_delta` for
  /// `patience` consecutive epochs (0 disables early stopping).
  int patience = 0;
  float min_delta = 1e-5f;
  /// Throw TrainingDiverged as soon as an epoch loss is NaN/Inf. A
  /// diverged model would otherwise score every sample NaN and silently
  /// poison the critic's rankings; callers (AspectEnsemble) catch the
  /// throw and retry deterministically with a reduced learning rate.
  bool abort_on_nonfinite = true;
};

struct EpochStats {
  int epoch = 0;
  float loss = 0.0f;
};

/// Epoch loss went NaN/Inf (exploding gradients, poisoned input, too
/// hot a learning rate). The model's parameters are unusable.
struct TrainingDiverged : std::runtime_error {
  explicit TrainingDiverged(const std::string& what)
      : std::runtime_error(what) {}
};

/// The per-batch buffers of a training loop: batch staging, loss
/// gradient, and the layer activation tape. All fully (re)written every
/// batch, so one workspace is safely reused across models of different
/// shapes — ResizeUninit never shrinks capacity, meaning a workspace
/// that has seen its largest model allocates nothing afterwards.
struct TrainWorkspace {
  Tensor x;
  Tensor grad;
  Sequential::TrainScratch scratch;
};

/// The calling thread's lazily-created workspace, reused across every
/// model this thread trains (TrainStream's workers and AspectEnsemble's
/// pool workers route through this).
TrainWorkspace& ThreadTrainWorkspace();

/// One model's slot in a TrainStream batch. The caller owns net and
/// optimizer (both borrowed for the duration of the stream); the stream
/// fills in the outcome fields.
struct TrainJob {
  Sequential* net = nullptr;
  Optimizer* optimizer = nullptr;
  /// Builds the training rows, on the worker as the job starts; the
  /// stream frees them as the job ends, so it never holds more batches
  /// than it has workers.
  std::function<Tensor()> make_data;
  TrainConfig config;
  /// Observes this job's epochs. Called from whichever thread runs the
  /// job — callers that share state across jobs must synchronize.
  std::function<void(const EpochStats&)> on_epoch;
  /// Called on the worker once the job has ended (trained or diverged)
  /// and its batch is freed — e.g. to checkpoint the model while other
  /// jobs are still training.
  std::function<void(TrainJob&)> on_done;

  // Outcome (written by TrainStream):
  std::vector<EpochStats> history;
  bool diverged = false;    // TrainingDiverged was caught for this job
  std::string error;        // its message, when diverged
};

/// Trains every job in `jobs` through one shared context. With a
/// resolved thread count of 1 (or when called from a pool worker) the
/// jobs run one after another, in order, on the calling thread's
/// workspace. With more threads, jobs fan out job-per-worker over the
/// shared pool in vector order (put the longest first), each worker
/// reusing its thread-local workspace across the jobs it claims.
/// Either way each model's parameters are bit-identical to training it
/// alone: a job only ever consumes its own seed-derived streams.
/// Divergence is per-job: a TrainingDiverged job is recorded
/// (diverged/error) and the stream continues; no exception escapes for
/// it. Any other exception (from make_data, on_epoch or on_done)
/// propagates to the caller. `threads` follows the ResolveThreadCount
/// rule.
void TrainStream(std::vector<TrainJob>& jobs, int threads);

/// Trains `net` to reconstruct `data` (each row one sample) with MSE.
/// Returns per-epoch losses. `on_epoch` (optional) observes progress.
/// `workspace` (optional) supplies the batch buffers — pass
/// ThreadTrainWorkspace() to reuse them across models on this thread.
std::vector<EpochStats> TrainReconstruction(
    Sequential& net, Optimizer& optimizer, const Tensor& data,
    const TrainConfig& config,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr,
    TrainWorkspace* workspace = nullptr);

/// Per-sample reconstruction error of `data` under `net` (inference
/// mode), evaluated in batches to bound memory. Const and thread-safe
/// on a trained model.
std::vector<float> ReconstructionErrors(const Sequential& net,
                                        const Tensor& data,
                                        std::size_t batch_size = 256);

}  // namespace acobe::nn
