// Concurrency contract tests for the NN math core (src/nn/gemm.h):
//   - GEMM threading: every GEMM form is bit-identical to nn::reference
//     at 1/2/4/8 GEMM threads, including a shape heavy enough to take
//     the panel-parallel path;
//   - pack-arena accounting: PackBytesInUse grows with GemmTransB
//     staging, ReleaseThreadScratch returns it, oversized retained
//     capacity shrinks back on the next small request;
//   - TrainStream: serial (jobs one after another) and parallel job
//     fan-out both produce histories bit-identical to
//     TrainReconstruction, never hold more built batches than workers,
//     and capture a diverging job per-job without poisoning the rest.
//
// Every case pins the GEMM thread count it needs and restores the entry
// state afterwards. CI also runs this binary under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/autoencoder.h"
#include "nn/gemm.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "nn/tensor.h"
#include "nn/trainer.h"

namespace acobe::nn {
namespace {

std::uint32_t Bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

Tensor RandomTensor(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return t;
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got.data()[i]), Bits(want.data()[i]))
        << what << " elem " << i;
  }
}

/// Restores the GEMM thread count on scope exit, so tests compose
/// regardless of the ACOBE_NN_THREADS the binary started under.
struct ThreadsGuard {
  int saved_threads = NnThreads();
  ~ThreadsGuard() { SetNnThreads(saved_threads); }
};

// The shape set: small edge-heavy shapes plus one heavy shape
// (2*128*64*256 = 4 Mi flops, 16 j-panels) that crosses the
// panel-parallel floor, so multi-thread runs actually take the threaded
// path.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {{1, 1, 1},    {3, 5, 7},    {9, 17, 33},
                         {33, 31, 47}, {64, 48, 80}, {128, 64, 256}};

/// All three GEMM forms vs nn::reference, bitwise.
void ExpectMatchesReferenceBitwise(const std::string& label) {
  for (const Shape& s : kShapes) {
    Rng rng(s.m * 131071 + s.k * 8191 + s.n);
    const Tensor a = RandomTensor(s.m, s.k, rng);
    const Tensor b = RandomTensor(s.k, s.n, rng);
    const Tensor bias = RandomTensor(1, s.n, rng);
    Tensor c, cref;
    Gemm(a, b, c, bias.data());
    reference::Gemm(a, b, cref, bias.data());
    ExpectBitIdentical(c, cref, label + "/Gemm+bias");

    const Tensor at = RandomTensor(s.k, s.m, rng);
    GemmTransA(at, b, c);
    reference::GemmTransA(at, b, cref);
    ExpectBitIdentical(c, cref, label + "/GemmTransA");

    const Tensor bt = RandomTensor(s.n, s.k, rng);
    GemmTransB(a, bt, c);
    reference::GemmTransB(a, bt, cref);
    ExpectBitIdentical(c, cref, label + "/GemmTransB");
  }
}

// --- GEMM threading ----------------------------------------------------------

TEST(GemmThreadsTest, SetResolveAndAnnotate) {
  ThreadsGuard guard;
  SetNnThreads(4);
  EXPECT_EQ(NnThreads(), 4);
  BuildInfo info;
  AnnotateBuildInfo(info);
  EXPECT_EQ(info.nn_threads, 4);
  SetNnThreads(1);
  EXPECT_EQ(NnThreads(), 1);
}

TEST(GemmThreadsTest, MatchesReferenceBitwiseAtEveryThreadCount) {
  ThreadsGuard guard;
  for (int threads : {1, 2, 4, 8}) {
    SetNnThreads(threads);
    ExpectMatchesReferenceBitwise("t" + std::to_string(threads));
  }
}

// --- Pack-arena accounting ---------------------------------------------------

TEST(PackArenaTest, GemmTransBStagingIsAccountedAndReleasable) {
  ThreadsGuard guard;
  SetNnThreads(1);
  ReleaseThreadScratch();
  const std::size_t base = PackBytesInUse();

  Rng rng(11);
  const std::size_t k = 96, n = 128;  // 48 KiB of B^T staging
  const Tensor a = RandomTensor(8, k, rng);
  const Tensor bt = RandomTensor(n, k, rng);
  Tensor c;
  GemmTransB(a, bt, c);
  EXPECT_GE(PackBytesInUse(), base + k * n * sizeof(float));

  ReleaseThreadScratch();
  EXPECT_EQ(PackBytesInUse(), base);
}

TEST(PackArenaTest, OversizedArenaShrinksOnSmallRequest) {
  ThreadsGuard guard;
  SetNnThreads(1);
  ReleaseThreadScratch();
  const std::size_t base = PackBytesInUse();

  Rng rng(13);
  // Grow the arena past the shrink floor (> 1 MiB retained)...
  const std::size_t big_k = 600, big_n = 600;
  const Tensor a_big = RandomTensor(4, big_k, rng);
  const Tensor bt_big = RandomTensor(big_n, big_k, rng);
  Tensor c;
  GemmTransB(a_big, bt_big, c);
  EXPECT_GE(PackBytesInUse(), base + big_k * big_n * sizeof(float));

  // ...then a tiny request must shed the retained capacity rather than
  // pinning ~1.4 MiB for the rest of the thread's life.
  const Tensor a_small = RandomTensor(2, 8, rng);
  const Tensor bt_small = RandomTensor(8, 8, rng);
  GemmTransB(a_small, bt_small, c);
  EXPECT_LT(PackBytesInUse(), base + (1u << 20));

  ReleaseThreadScratch();
  EXPECT_EQ(PackBytesInUse(), base);
}

// --- TrainStream -------------------------------------------------------------

Tensor TrainingData(std::uint64_t seed) {
  Rng rng(seed);
  Tensor data(40, 12);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] = 0.5f + 0.25f * static_cast<float>(rng.NextGaussian());
  }
  return data;
}

Sequential MakeNet(std::uint64_t init_seed) {
  AutoencoderSpec spec;
  spec.input_dim = 12;
  spec.encoder_dims = {16, 8};
  spec.batch_norm = true;
  spec.sigmoid_output = true;
  Sequential net = BuildAutoencoder(spec);
  Rng init_rng(init_seed);
  net.InitParams(init_rng);
  return net;
}

TrainConfig StreamConfig(std::uint64_t seed) {
  TrainConfig cfg;
  cfg.epochs = 5;
  cfg.batch_size = 16;
  cfg.seed = seed;
  return cfg;
}

// Every job builds its data through make_data and reports back through
// on_done; the number of batches alive at once is checked against the
// worker count.
void RunStreamParityAt(int threads) {
  ThreadsGuard guard;
  SetNnThreads(1);
  const int kJobs = 3;

  // Baseline: each model trained alone through the original API.
  std::vector<std::vector<EpochStats>> solo(kJobs);
  std::vector<std::vector<float>> solo_params(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    Sequential net = MakeNet(100 + j);
    Adadelta opt(1.0f);
    const Tensor data = TrainingData(200 + j);
    solo[j] = TrainReconstruction(net, opt, data, StreamConfig(300 + j));
    for (const Param* p : net.Params()) {
      solo_params[j].insert(solo_params[j].end(), p->value.data(),
                            p->value.data() + p->value.size());
    }
  }

  // The same three models as one stream.
  std::vector<Sequential> nets;
  std::vector<Adadelta> opts;
  nets.reserve(kJobs);
  opts.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    nets.push_back(MakeNet(100 + j));
    opts.emplace_back(1.0f);
  }
  std::atomic<int> live(0), peak(0), done(0);
  std::vector<TrainJob> jobs(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    jobs[j].net = &nets[j];
    jobs[j].optimizer = &opts[j];
    jobs[j].config = StreamConfig(300 + j);
    jobs[j].make_data = [j, &live, &peak] {
      const int now = ++live;
      int seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      return TrainingData(200 + j);
    };
    jobs[j].on_done = [&live, &done](TrainJob& job) {
      --live;
      ++done;
      EXPECT_FALSE(job.history.empty());
    };
  }
  TrainStream(jobs, threads);
  EXPECT_EQ(done.load(), kJobs);
  EXPECT_EQ(live.load(), 0);
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), std::min(threads, kJobs));

  for (int j = 0; j < kJobs; ++j) {
    EXPECT_FALSE(jobs[j].diverged) << "job " << j;
    ASSERT_EQ(jobs[j].history.size(), solo[j].size()) << "job " << j;
    for (std::size_t e = 0; e < solo[j].size(); ++e) {
      EXPECT_EQ(Bits(jobs[j].history[e].loss), Bits(solo[j][e].loss))
          << "threads=" << threads << " job " << j << " epoch " << e;
    }
    std::vector<float> params;
    for (const Param* p : nets[j].Params()) {
      params.insert(params.end(), p->value.data(),
                    p->value.data() + p->value.size());
    }
    ASSERT_EQ(params.size(), solo_params[j].size()) << "job " << j;
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_EQ(Bits(params[i]), Bits(solo_params[j][i]))
          << "threads=" << threads << " job " << j << " param " << i;
    }
  }
}

TEST(TrainStreamTest, SerialStreamMatchesSoloTrainingBitwise) {
  RunStreamParityAt(1);
}

TEST(TrainStreamTest, ParallelFanOutMatchesSoloTrainingBitwise) {
  RunStreamParityAt(2);
  RunStreamParityAt(4);
}

TEST(TrainStreamTest, DivergedJobIsCapturedWithoutPoisoningTheStream) {
  ThreadsGuard guard;
  SetNnThreads(1);

  Sequential good_net = MakeNet(100);
  Sequential bad_net = MakeNet(101);
  Adadelta good_opt(1.0f), bad_opt(1.0f);

  std::vector<TrainJob> jobs(2);
  jobs[0].net = &bad_net;
  jobs[0].optimizer = &bad_opt;
  jobs[0].make_data = [] {
    Tensor bad_data = TrainingData(201);
    bad_data.data()[0] = std::nanf("");  // poisons the first epoch's loss
    return bad_data;
  };
  jobs[0].config = StreamConfig(300);
  jobs[1].net = &good_net;
  jobs[1].optimizer = &good_opt;
  jobs[1].make_data = [] { return TrainingData(200); };
  jobs[1].config = StreamConfig(301);
  TrainStream(jobs, 1);

  EXPECT_TRUE(jobs[0].diverged);
  EXPECT_FALSE(jobs[0].error.empty());
  EXPECT_FALSE(jobs[1].diverged);
  ASSERT_EQ(jobs[1].history.size(), 5u);
  for (const EpochStats& s : jobs[1].history) {
    EXPECT_TRUE(std::isfinite(s.loss));
  }
}

}  // namespace
}  // namespace acobe::nn
