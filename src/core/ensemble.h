#pragma once

// The ensemble of deep fully-connected autoencoders at ACOBE's heart:
// one autoencoder per behavioral aspect (Section IV.B). Each model is
// trained to reconstruct the aspect's behavioral representation for all
// users over the training day range; anomaly scores are per-sample
// reconstruction errors.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "behavior/sample_builder.h"
#include "core/score_grid.h"
#include "features/feature_catalog.h"
#include "nn/autoencoder.h"
#include "nn/trainer.h"

namespace acobe {

enum class OptimizerKind {
  kAdadelta,  // the paper's choice
  kAdam,      // converges in far fewer epochs; used at reduced scale
  kSgd,
};

struct EnsembleConfig {
  /// Encoder widths (paper: 512-256-128-64). Scaled down for
  /// reduced-scale experiments.
  std::vector<std::size_t> encoder_dims = {512, 256, 128, 64};
  bool batch_norm = true;
  OptimizerKind optimizer = OptimizerKind::kAdadelta;
  float learning_rate = 1.0f;  // Adadelta scale; use ~1e-3 for Adam
  nn::TrainConfig train;
  /// Use every `train_stride`-th anchor day per user when assembling the
  /// training set (1 = all days).
  int train_stride = 1;
  std::uint64_t seed = 1234;
  /// Worker threads for Train (across aspects) and Score (across
  /// users). 0 = the ACOBE_THREADS environment variable, falling back
  /// to hardware concurrency (see common/parallel.h). Results are
  /// bit-identical for every thread count: per-aspect RNG streams are
  /// seed-derived and scoring writes disjoint grid cells.
  int threads = 0;
  /// Total training attempts per aspect. A TrainingDiverged (NaN/Inf
  /// epoch loss) retries deterministically: attempt k re-derives fresh
  /// init/shuffle seeds from the base seed and scales the learning rate
  /// by retry_lr_decay^k. Attempt 0 reproduces the single-attempt seeds
  /// bit-exactly, so converging runs are unchanged.
  int max_train_attempts = 3;
  float retry_lr_decay = 0.5f;
  /// When an aspect diverges on every attempt: mark it failed and score
  /// from the remaining aspects (true), or rethrow (false). Failed
  /// aspects are reported via failed_aspects() and excluded from the
  /// ScoreGrid.
  bool allow_degraded = true;
  /// When non-empty, each aspect's trained autoencoder is checkpointed
  /// here (crash-safe: atomic rename + CRC) as soon as it finishes, and
  /// with `resume` set, Train() loads matching checkpoints instead of
  /// retraining — a killed run restarts from the last completed aspect
  /// and reproduces the uninterrupted result bit-exactly. A corrupt or
  /// truncated checkpoint is discarded and retrained; a checkpoint
  /// whose architecture mismatches the config throws CheckpointMismatch
  /// (the directory belongs to a different run configuration). The
  /// directory is also how a trained ensemble is persisted: train once,
  /// and a later Train with `resume` loads every aspect instead of
  /// retraining it.
  std::string checkpoint_dir;
  bool resume = false;
};

/// A resume checkpoint was valid but trained under a different
/// architecture than the current run (see EnsembleConfig::checkpoint_dir).
struct CheckpointMismatch : std::runtime_error {
  explicit CheckpointMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

/// How one aspect's model came to be — provenance for the run ledger's
/// "aspect_trained" events. Filled by Train() (one entry per aspect,
/// aspect order).
struct AspectTrainSummary {
  std::string name;
  /// Training attempts consumed (divergence retries included); 0 when
  /// the model was resumed from a checkpoint instead of trained.
  int attempts = 0;
  bool resumed = false;
  bool ok = false;  // false = diverged on every attempt (degraded)
  int epochs = 0;   // epochs of the final (successful) attempt
  float final_loss = 0.0f;
  /// Per-epoch loss of the final attempt (earlier diverged attempts are
  /// dropped — their trajectories end in NaN/Inf by definition).
  std::vector<float> epoch_losses;
};

class AspectEnsemble;

/// One ensemble's share of a joint training run (AspectEnsemble::TrainAll):
/// train `ensemble` on samples from `builder` for users [0, n_users) and
/// anchor days [day_begin, day_end) intersected with the builder's valid
/// range. The ensemble and builder are borrowed for the call.
struct EnsembleTrainTask {
  AspectEnsemble* ensemble = nullptr;
  const SampleBuilder* builder = nullptr;
  int n_users = 0;
  int day_begin = 0;
  int day_end = 0;
};

class AspectEnsemble {
 public:
  using EpochCallback =
      std::function<void(const std::string& aspect, const nn::EpochStats&)>;

  /// One autoencoder per entry of `aspects` (feature index groups).
  AspectEnsemble(std::vector<AspectGroup> aspects, EnsembleConfig config);

  /// Trains every aspect model on samples from `builder` for users
  /// [0, n_users) and anchor days [day_begin, day_end) intersected with
  /// the builder's valid range. The one-task case of TrainAll, over
  /// this ensemble's configured thread count.
  void Train(const SampleBuilder& builder, int n_users, int day_begin,
             int day_end, const EpochCallback& on_epoch = nullptr);

  /// Trains several ensembles as one (task × aspect) job graph: every
  /// aspect model still to train goes through a single nn::TrainStream
  /// over `threads` workers (ResolveThreadCount rule), longest job
  /// (rows × input dim) first. Each job assembles its batch on the
  /// worker as it starts, checkpoints its model and frees the batch as
  /// it ends, so at most one batch per worker is alive (the
  /// "ensemble.train_batches_peak" gauge). Each task keeps its own
  /// config — seeds, checkpoint_dir, resume, retries — and every model
  /// is bit-identical to training its ensemble alone, at any thread
  /// count. The "train.loss.<aspect>" series receive each model's
  /// epoch losses after the stream, in (task, aspect) order. Throws
  /// like Train() for the first task that cannot train.
  static void TrainAll(const std::vector<EnsembleTrainTask>& tasks,
                       int threads, const EpochCallback& on_epoch = nullptr);

  /// Scores users over [day_begin, day_end) (intersected with validity).
  ScoreGrid Score(const SampleBuilder& builder, int n_users, int day_begin,
                  int day_end) const;

  int aspect_count() const { return static_cast<int>(aspects_.size()); }
  const AspectGroup& aspect(int i) const { return aspects_.at(i); }
  nn::Sequential& model(int i) { return models_.at(i); }
  const nn::Sequential& model(int i) const { return models_.at(i); }
  const nn::AutoencoderSpec& model_spec(int i) const { return specs_.at(i); }
  const EnsembleConfig& config() const { return config_; }
  bool trained() const { return trained_; }

  /// Health after Train(): an aspect whose training diverged on every
  /// attempt is unusable; Score() ranks from the healthy remainder.
  bool aspect_ok(int i) const { return trained_ && aspect_ok_.at(i) != 0; }
  bool degraded() const;
  int healthy_aspect_count() const;
  /// Names of irrecoverable aspects, in aspect order (for report flags).
  std::vector<std::string> failed_aspects() const;

  /// Per-aspect training provenance from the last Train() (aspect
  /// order); empty before training.
  const std::vector<AspectTrainSummary>& train_summaries() const {
    return summaries_;
  }

 private:
  nn::Tensor AssembleBatchForDays(const SampleBuilder& builder,
                                  const AspectGroup& aspect, int n_users,
                                  int day_begin, int day_end,
                                  int stride) const;

  std::vector<AspectGroup> aspects_;
  EnsembleConfig config_;
  std::vector<nn::Sequential> models_;
  std::vector<nn::AutoencoderSpec> specs_;
  std::vector<std::uint8_t> aspect_ok_;
  std::vector<AspectTrainSummary> summaries_;
  bool trained_ = false;
};

}  // namespace acobe
