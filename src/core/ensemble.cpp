#include "core/ensemble.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/faults.h"
#include "common/health.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace acobe {
namespace {

/// Checkpoint file for one aspect, named after the aspect with
/// filesystem-hostile characters mapped to '_'.
std::string CheckpointPath(const std::string& dir,
                           const std::string& aspect_name) {
  std::string stem;
  stem.reserve(aspect_name.size());
  for (char c : aspect_name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    stem.push_back(safe ? c : '_');
  }
  return dir + "/aspect_" + stem + ".ae";
}

/// Training rows of one aspect's batch: every `stride`-th anchor day of
/// [day_begin, day_end) clamped to the builder's validity, per user.
std::size_t TrainingRows(const SampleBuilder& builder, int n_users,
                         int day_begin, int day_end, int stride) {
  const int first = std::max(day_begin, builder.FirstValidDay());
  const int last = std::min(day_end, builder.EndDay());
  if (first >= last) {
    throw std::invalid_argument(
        "AspectEnsemble: empty day range after clamping to builder validity");
  }
  std::size_t days = 0;
  for (int d = first; d < last; d += stride) ++days;
  return days * static_cast<std::size_t>(n_users);
}

bool SpecsMatch(const nn::AutoencoderSpec& a, const nn::AutoencoderSpec& b) {
  return a.input_dim == b.input_dim && a.encoder_dims == b.encoder_dims &&
         a.batch_norm == b.batch_norm && a.sigmoid_output == b.sigmoid_output;
}

}  // namespace

AspectEnsemble::AspectEnsemble(std::vector<AspectGroup> aspects,
                               EnsembleConfig config)
    : aspects_(std::move(aspects)), config_(std::move(config)) {
  if (aspects_.empty()) {
    throw std::invalid_argument("AspectEnsemble: no aspects");
  }
  for (const AspectGroup& aspect : aspects_) {
    if (aspect.feature_indices.empty()) {
      throw std::invalid_argument("AspectEnsemble: empty aspect '" +
                                  aspect.name + "'");
    }
  }
}

bool AspectEnsemble::degraded() const {
  return trained_ && healthy_aspect_count() != aspect_count();
}

int AspectEnsemble::healthy_aspect_count() const {
  int n = 0;
  for (std::uint8_t ok : aspect_ok_) n += ok != 0;
  return n;
}

std::vector<std::string> AspectEnsemble::failed_aspects() const {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < aspect_ok_.size(); ++a) {
    if (!aspect_ok_[a]) names.push_back(aspects_[a].name);
  }
  return names;
}

nn::Tensor AspectEnsemble::AssembleBatchForDays(const SampleBuilder& builder,
                                                const AspectGroup& aspect,
                                                int n_users, int day_begin,
                                                int day_end,
                                                int stride) const {
  const std::size_t dim = builder.SampleSize(aspect.feature_indices.size());
  const std::size_t rows =
      TrainingRows(builder, n_users, day_begin, day_end, stride);
  const int first = std::max(day_begin, builder.FirstValidDay());
  const int last = std::min(day_end, builder.EndDay());

  nn::Tensor data(rows, dim);
  std::size_t row = 0;
  for (int u = 0; u < n_users; ++u) {
    for (int d = first; d < last; d += stride) {
      const std::vector<float> sample =
          builder.BuildSample(u, aspect.feature_indices, d);
      std::copy(sample.begin(), sample.end(), data.data() + row * dim);
      ++row;
    }
  }
  return data;
}

void AspectEnsemble::Train(const SampleBuilder& builder, int n_users,
                           int day_begin, int day_end,
                           const EpochCallback& on_epoch) {
  TrainAll({EnsembleTrainTask{this, &builder, n_users, day_begin, day_end}},
           config_.threads, on_epoch);
}

void AspectEnsemble::TrainAll(const std::vector<EnsembleTrainTask>& tasks,
                              int threads, const EpochCallback& on_epoch) {
  ACOBE_SPAN("ensemble.train");
  // One slot per (task, aspect), in (task, aspect) order: the order in
  // which every scheduling-independent result is recorded.
  struct Slot {
    const EnsembleTrainTask* task = nullptr;
    std::size_t a = 0;
    bool needs_train = false;
    std::size_t cost = 0;       // rows × input dim, for job ordering
    std::vector<float> losses;  // every attempt's epoch losses
  };
  std::vector<Slot> slots;
  for (const EnsembleTrainTask& task : tasks) {
    AspectEnsemble& e = *task.ensemble;
    const std::size_t n = e.aspects_.size();
    e.models_.clear();
    e.specs_.clear();
    e.models_.resize(n);
    e.specs_.resize(n);
    e.aspect_ok_.assign(n, 0);
    e.summaries_.assign(n, AspectTrainSummary{});
    e.trained_ = false;
    if (!e.config_.checkpoint_dir.empty()) {
      std::filesystem::create_directories(e.config_.checkpoint_dir);
    }
    for (std::size_t a = 0; a < n; ++a) {
      Slot slot;
      slot.task = &task;
      slot.a = a;
      slots.push_back(std::move(slot));
    }
  }

  // Phase 1 — per-model setup: spec, checkpoint resume, and the size of
  // the batch still to train. Runs on the shared pool so its warm
  // workers carry straight into the training stream below.
  ParallelFor(0, static_cast<int>(slots.size()), threads, [&](int si) {
    Slot& slot = slots[static_cast<std::size_t>(si)];
    const EnsembleTrainTask& task = *slot.task;
    AspectEnsemble& e = *task.ensemble;
    const std::size_t a = slot.a;
    const AspectGroup& aspect = e.aspects_[a];
    telemetry::TraceSpan aspect_span("ensemble.train_aspect", aspect.name);
    AspectTrainSummary& summary = e.summaries_[a];
    summary.name = aspect.name;
    nn::AutoencoderSpec spec;
    spec.input_dim = task.builder->SampleSize(aspect.feature_indices.size());
    spec.encoder_dims = e.config_.encoder_dims;
    spec.batch_norm = e.config_.batch_norm;
    spec.sigmoid_output = true;
    e.specs_[a] = spec;

    if (e.config_.resume && !e.config_.checkpoint_dir.empty()) {
      const std::string ckpt =
          CheckpointPath(e.config_.checkpoint_dir, aspect.name);
      telemetry::TraceSpan load_span("ensemble.checkpoint_load", aspect.name);
      std::ifstream in(ckpt, std::ios::binary);
      if (in) {
        try {
          nn::AutoencoderSpec loaded_spec;
          nn::Sequential net = nn::LoadAutoencoder(in, loaded_spec);
          if (!SpecsMatch(loaded_spec, spec)) {
            throw CheckpointMismatch(
                "checkpoint " + ckpt +
                " was trained under a different architecture");
          }
          e.models_[a] = std::move(net);
          e.aspect_ok_[a] = 1;
          summary.resumed = true;
          summary.ok = true;
          ACOBE_COUNT("ensemble.aspects_resumed", 1);
          health::StageAdvance();  // this aspect is done
          return;
        } catch (const CheckpointMismatch&) {
          throw;
        } catch (const std::exception&) {
          // Corrupt or truncated checkpoint (detected by its CRC):
          // discard it and retrain this aspect from scratch.
          ACOBE_COUNT("ensemble.checkpoints_corrupt", 1);
        }
      }
    }
    const int stride = std::max(1, e.config_.train_stride);
    slot.cost = TrainingRows(*task.builder, task.n_users, task.day_begin,
                             task.day_end, stride) *
                spec.input_dim;
    slot.needs_train = true;
  });

  // Phase 2 — the job graph: every still-untrained model becomes one
  // TrainJob and the whole batch goes through one nn::TrainStream (warm
  // shared pool, per-worker reused workspaces and pack arenas). A job
  // assembles its batch on the worker as it starts and frees it as it
  // ends, so at most one batch per worker is alive however many
  // ensembles train together. Divergence is handled at stream
  // granularity: diverged models re-enter the next round with the retry
  // seed/learning-rate derivations until their attempt budget runs out.
  struct Pending {
    Slot* slot;
    int attempt;
  };
  std::vector<Pending> pending;
  for (Slot& slot : slots) {
    if (slot.needs_train) pending.push_back({&slot, 0});
  }
  // Longest first: the pool claims jobs in order, so the biggest models
  // start at once and the small ones fill in around them.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& x, const Pending& y) {
                     return x.slot->cost > y.slot->cost;
                   });
  // Epoch callbacks can arrive from worker threads; serialize them.
  // Their interleaving depends on scheduling, but each model only
  // consumes its own seed-derived RNG streams, so the trained
  // parameters are bit-identical however the jobs are scheduled.
  std::mutex epoch_mutex;
  std::atomic<int> live_batches(0);
  while (!pending.empty()) {
    telemetry::TraceSpan stream_span("ensemble.train_stream");
    std::vector<nn::Sequential> nets(pending.size());
    std::vector<std::unique_ptr<nn::Optimizer>> optimizers(pending.size());
    std::vector<nn::TrainJob> jobs(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const EnsembleTrainTask& task = *pending[i].slot->task;
      const AspectEnsemble& e = *task.ensemble;
      const EnsembleConfig& config = e.config_;
      const std::size_t a = pending[i].slot->a;
      const AspectGroup& aspect = e.aspects_[a];
      AspectTrainSummary& summary = task.ensemble->summaries_[a];
      summary.attempts = pending[i].attempt + 1;
      summary.epoch_losses.clear();
      nets[i] = nn::BuildAutoencoder(e.specs_[a]);
      // Attempt 0 reproduces the single-attempt seed derivations
      // bit-exactly; retries fork deterministic fresh streams.
      const std::uint64_t attempt_key =
          static_cast<std::uint64_t>(pending[i].attempt);
      Rng rng(config.seed + a * 7919 + attempt_key * 0x9E3779B97F4A7C15ULL);
      nets[i].InitParams(rng);
      const float lr = config.learning_rate *
                       std::pow(config.retry_lr_decay,
                                static_cast<float>(pending[i].attempt));
      switch (config.optimizer) {
        case OptimizerKind::kAdadelta:
          optimizers[i] = std::make_unique<nn::Adadelta>(lr);
          break;
        case OptimizerKind::kAdam:
          optimizers[i] = std::make_unique<nn::Adam>(lr);
          break;
        case OptimizerKind::kSgd:
          optimizers[i] = std::make_unique<nn::Sgd>(lr, 0.9f);
          break;
      }
      nn::TrainJob& job = jobs[i];
      job.net = &nets[i];
      job.optimizer = optimizers[i].get();
      job.config = config.train;
      job.config.seed =
          config.seed + a * 104729 + attempt_key * 0xC2B2AE3D27D4EB4FULL;
      job.make_data = [&task, &e, &aspect, &live_batches] {
        [[maybe_unused]] const int live = ++live_batches;
        ACOBE_GAUGE_MAX("ensemble.train_batches_peak", live);
        return e.AssembleBatchForDays(*task.builder, aspect, task.n_users,
                                      task.day_begin, task.day_end,
                                      std::max(1, e.config_.train_stride));
      };
      job.on_epoch = [&summary, &epoch_mutex, &on_epoch,
                      &aspect](const nn::EpochStats& s) {
        summary.epoch_losses.push_back(s.loss);
        if (on_epoch) {
          std::lock_guard<std::mutex> lock(epoch_mutex);
          on_epoch(aspect.name, s);
        }
      };
      // Free the optimizer state (Adam keeps two moments per parameter)
      // and checkpoint as soon as the model is trained, on its worker: a
      // job graph holds the state of only the jobs still running, and a
      // killed run restarts from every model finished so far.
      job.on_done = [&e, a, &live_batches, &optimizers,
                     i](nn::TrainJob& done) {
        --live_batches;
        optimizers[i].reset();
        done.optimizer = nullptr;
        if (done.diverged) return;
        if (!e.config_.checkpoint_dir.empty()) {
          const std::string ckpt =
              CheckpointPath(e.config_.checkpoint_dir, e.aspects_[a].name);
          telemetry::TraceSpan save_span("ensemble.checkpoint_save",
                                         e.aspects_[a].name);
          WriteFileAtomic(ckpt, [&](std::ostream& out) {
            nn::SaveAutoencoder(e.specs_[a], *done.net, out);
          });
        }
        health::StageAdvance();
      };
    }

    nn::TrainStream(jobs, threads);

    std::vector<Pending> retry;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Slot& slot = *pending[i].slot;
      AspectEnsemble& e = *slot.task->ensemble;
      const std::size_t a = slot.a;
      AspectTrainSummary& summary = e.summaries_[a];
      slot.losses.insert(slot.losses.end(), summary.epoch_losses.begin(),
                         summary.epoch_losses.end());
      if (jobs[i].diverged) {
        ACOBE_COUNT("ensemble.train_retries", 1);
        const int attempts = std::max(1, e.config_.max_train_attempts);
        if (pending[i].attempt + 1 < attempts) {
          retry.push_back({&slot, pending[i].attempt + 1});
          continue;
        }
        if (!e.config_.allow_degraded) {
          throw nn::TrainingDiverged(jobs[i].error);
        }
        // Irrecoverable: leave aspect_ok_[a] == 0; Score() ranks from
        // the healthy remainder and reports flag the gap.
        ACOBE_COUNT("ensemble.aspects_failed", 1);
        health::StageAdvance();
        continue;
      }
      e.models_[a] = std::move(nets[i]);
      e.aspect_ok_[a] = 1;
      summary.ok = true;
      summary.epochs = static_cast<int>(summary.epoch_losses.size());
      summary.final_loss =
          summary.epoch_losses.empty() ? 0.0f : summary.epoch_losses.back();
    }
    pending = std::move(retry);
  }

  // Per-aspect per-epoch loss trajectories ("train.loss.<aspect>"),
  // appended after the stream in (task, aspect) order so the series are
  // the same at every thread count.
  if (telemetry::MetricsEnabled()) {
    for (const Slot& slot : slots) {
      if (!slot.needs_train) continue;
      telemetry::Series& series = telemetry::GetSeries(
          "train.loss." + slot.task->ensemble->aspects_[slot.a].name);
      for (float loss : slot.losses) series.Append(loss);
    }
  }
  for (const EnsembleTrainTask& task : tasks) {
    AspectEnsemble& e = *task.ensemble;
    ACOBE_COUNT("ensemble.aspects_trained", e.healthy_aspect_count());
    e.trained_ = e.healthy_aspect_count() > 0;
  }
  for (const EnsembleTrainTask& task : tasks) {
    if (!task.ensemble->trained_) {
      throw std::runtime_error(
          "AspectEnsemble::Train: every aspect diverged on every attempt");
    }
  }
}

ScoreGrid AspectEnsemble::Score(const SampleBuilder& builder, int n_users,
                                int day_begin, int day_end) const {
  ACOBE_SPAN("ensemble.score");
  if (!trained_) throw std::logic_error("AspectEnsemble::Score before Train");
  const int first = std::max(day_begin, builder.FirstValidDay());
  const int last = std::min(day_end, builder.EndDay());
  if (first >= last) {
    throw std::invalid_argument("AspectEnsemble::Score: empty day range");
  }
  // Graceful degradation: rank only over aspects whose training
  // converged. Grid aspect h maps to ensemble aspect healthy[h]; with
  // no failures this is the identity and results are unchanged.
  std::vector<int> healthy;
  for (int a = 0; a < aspect_count(); ++a) {
    if (aspect_ok_[static_cast<std::size_t>(a)]) healthy.push_back(a);
  }
  if (healthy.empty()) {
    throw std::runtime_error("AspectEnsemble::Score: every aspect failed");
  }
  std::vector<std::string> names;
  names.reserve(healthy.size());
  for (int a : healthy) names.push_back(aspects_[a].name);
  ScoreGrid grid(std::move(names), n_users, first, last);

  // One work item per (aspect, user): each scores all of the user's days
  // in one batch through the aspect's model via the const Infer path
  // (models are shared read-only across workers; every item writes a
  // disjoint set of grid cells).
  const int n_aspects = static_cast<int>(healthy.size());
  const int n_days = last - first;
  // Pool-backed so scoring reuses the workers (and their thread-local
  // batch/scratch buffers) the training stream already warmed up.
  ParallelFor(0, n_aspects * n_users, config_.threads, [&](int item) {
    telemetry::TraceSpan item_span("ensemble.score_user");
    const int h = item / n_users;
    const int a = healthy[static_cast<std::size_t>(h)];
    const int u = item % n_users;
    const AspectGroup& aspect = aspects_[static_cast<std::size_t>(a)];
    const std::size_t dim = builder.SampleSize(aspect.feature_indices.size());
    const nn::Sequential& net = models_[static_cast<std::size_t>(a)];
    thread_local nn::Tensor batch;
    thread_local nn::Sequential::InferScratch scratch;
    thread_local std::vector<float> errors;
    batch.ResizeUninit(static_cast<std::size_t>(n_days), dim);
    for (int d = first; d < last; ++d) {
      const std::vector<float> sample =
          builder.BuildSample(u, aspect.feature_indices, d);
      std::copy(sample.begin(), sample.end(),
                batch.data() + static_cast<std::size_t>(d - first) * dim);
    }
    const nn::Tensor& pred = net.Infer(batch, scratch);
    if (errors.size() < static_cast<std::size_t>(n_days)) {
      errors.resize(static_cast<std::size_t>(n_days));
    }
    nn::PerSampleMse(pred, batch, errors.data());
    for (int d = first; d < last; ++d) {
      grid.At(h, u, d) = errors[d - first];
    }
  });
  ACOBE_COUNT("ensemble.samples_scored",
              static_cast<std::uint64_t>(n_aspects) * n_users * n_days);
  return grid;
}

}  // namespace acobe
