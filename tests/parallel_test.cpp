// Thread-pool / ParallelFor unit tests, plus the determinism guarantee
// the parallel runtime is built on: training and scoring an ensemble
// with N workers is bit-identical to the ACOBE_THREADS=1 serial run, and
// a multi-group detection (every group's aspect models in one training
// job graph) equals Detector::Run on each group alone.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "behavior/normalized_day.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/critic.h"
#include "core/detector.h"
#include "core/ensemble.h"
#include "features/measurement_cube.h"

using namespace acobe;

namespace {

TEST(ParallelTest, ResolveThreadCountPrefersConfigured) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-2), 1);
}

TEST(ParallelTest, ResolveThreadCountHonorsEnv) {
  setenv("ACOBE_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  EXPECT_EQ(ResolveThreadCount(2), 2);  // explicit config wins
  setenv("ACOBE_THREADS", "0", 1);      // non-positive values are ignored
  EXPECT_GE(ResolveThreadCount(0), 1);
  unsetenv("ACOBE_THREADS");
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter(0);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, FutureCarriesException) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter(0);
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool waits for all queued work
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(0, 257, [&](int i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, CoversEveryIndexOnceAtAnyThreadCount) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(3, 103, threads, [&](int i) { ++hits[i - 3]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelFor(5, 5, 4, [](int) { FAIL() << "must not be called"; });
  ParallelFor(7, 2, 4, [](int) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, RethrowsIterationException) {
  EXPECT_THROW(
      ParallelFor(0, 64, 4,
                  [](int i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

std::size_t LiveThreads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(ParallelForTest, ShortSpansRunOnTheResolvedCountPool) {
#ifndef __linux__
  GTEST_SKIP() << "counts threads through /proc/self/task";
#endif
  SharedPool(4).ParallelFor(0, 4, [](int) {});  // warm
  const std::size_t baseline = LiveThreads();
  // Neither a thread per call nor a pool per span: a span shorter than
  // the thread count runs on the already-warm 4-worker pool.
  for (int span : {2, 3}) {
    std::vector<std::size_t> seen(static_cast<std::size_t>(span));
    ParallelFor(0, span, 4, [&](int i) {
      seen[static_cast<std::size_t>(i)] = LiveThreads();
    });
    for (int i = 0; i < span; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], baseline)
          << "span " << span << ", iteration " << i;
    }
  }
  EXPECT_EQ(LiveThreads(), baseline);
}

TEST(ParallelForTest, NestedCallRunsInlineOnThePoolTask) {
  constexpr int kIterations = 16;
  std::thread::id task_thread;
  std::vector<std::thread::id> ran_on(kIterations);
  std::vector<int> order(kIterations, -1);
  std::atomic<int> next(0);
  SharedPool(4)
      .Submit([&] {
        task_thread = std::this_thread::get_id();
        ParallelFor(0, kIterations, 4, [&](int i) {
          // Slow enough that any other thread running iterations would
          // claim some of them.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          ran_on[static_cast<std::size_t>(i)] = std::this_thread::get_id();
          order[static_cast<std::size_t>(i)] = next++;
        });
      })
      .get();
  for (int i = 0; i < kIterations; ++i) {
    EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], task_thread) << i;
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);  // serial, in order
  }
}

// --- Determinism of the parallel pipeline ---------------------------------

MeasurementCube SyntheticCube(int users, int days, int features, int frames) {
  MeasurementCube cube(Date(2010, 1, 2), days, features, frames);
  Rng rng(17);
  for (int u = 0; u < users; ++u) {
    cube.RegisterUser(u);
    for (int f = 0; f < features; ++f) {
      for (int d = 0; d < days; ++d) {
        for (int t = 0; t < frames; ++t) {
          cube.At(u, f, d, t) = static_cast<float>(rng.NextPoisson(3.0));
        }
      }
    }
  }
  return cube;
}

std::vector<AspectGroup> TwoAspects() {
  return {{"a0", {0, 1, 2}}, {"a1", {3, 4, 5}}};
}

ScoreGrid TrainAndScore(const SampleBuilder& builder, int users,
                        int threads) {
  EnsembleConfig cfg;
  cfg.encoder_dims = {16, 8};
  cfg.optimizer = OptimizerKind::kAdam;
  cfg.learning_rate = 1e-3f;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 16;
  cfg.threads = threads;
  AspectEnsemble ensemble(TwoAspects(), cfg);
  ensemble.Train(builder, users, 0, 30);
  return ensemble.Score(builder, users, 30, 50);
}

TEST(ParallelDeterminismTest, TrainScoreBitIdenticalToSerial) {
  const int users = 8;
  const MeasurementCube cube = SyntheticCube(users, 50, 6, 2);
  NormalizedDayBuilder builder(&cube, 0, 30);

  // Serial reference through the environment knob, as a user would pin it.
  setenv("ACOBE_THREADS", "1", 1);
  const ScoreGrid serial = TrainAndScore(builder, users, /*threads=*/0);
  unsetenv("ACOBE_THREADS");
  const ScoreGrid parallel = TrainAndScore(builder, users, /*threads=*/4);

  ASSERT_EQ(serial.aspects(), parallel.aspects());
  ASSERT_EQ(serial.users(), parallel.users());
  ASSERT_EQ(serial.day_begin(), parallel.day_begin());
  ASSERT_EQ(serial.day_end(), parallel.day_end());
  for (int a = 0; a < serial.aspects(); ++a) {
    for (int u = 0; u < serial.users(); ++u) {
      for (int d = serial.day_begin(); d < serial.day_end(); ++d) {
        // Bit-identical, not merely close.
        ASSERT_EQ(serial.At(a, u, d), parallel.At(a, u, d))
            << "aspect " << a << " user " << u << " day " << d;
      }
    }
  }

  // And the critic's investigation list (the user-facing artifact).
  const auto serial_list = RankUsers(serial, 2);
  const auto parallel_list = RankUsers(parallel, 2);
  ASSERT_EQ(serial_list.size(), parallel_list.size());
  for (std::size_t i = 0; i < serial_list.size(); ++i) {
    EXPECT_EQ(serial_list[i].user_idx, parallel_list[i].user_idx);
    EXPECT_EQ(serial_list[i].priority, parallel_list[i].priority);
  }
}

// --- Multi-group detection: one (group x aspect) job graph -----------------

constexpr int kGroups = 3;
constexpr int kGroupUsers = 5;
constexpr int kDays = 50;

// Aspects of different widths, so the longest-first job order differs
// from the (group, aspect) order.
FeatureCatalog GroupCatalog() {
  return FeatureCatalog({{"f0", "a", 1.0},
                         {"f1", "b", 1.0},
                         {"f2", "b", 1.0},
                         {"f3", "c", 1.0},
                         {"f4", "c", 1.0},
                         {"f5", "c", 1.0}});
}

std::vector<UserId> GroupMembers(int g) {
  std::vector<UserId> members;
  for (int u = 0; u < kGroupUsers; ++u) members.push_back(g * kGroupUsers + u);
  return members;
}

// Per-department cubes, the streaming demux layout: group g's users
// with the same values they have in the shared cube.
std::vector<MeasurementCube> DemuxCubes(const MeasurementCube& shared) {
  std::vector<MeasurementCube> cubes;
  for (int g = 0; g < kGroups; ++g) {
    MeasurementCube cube(shared.start(), shared.days(), shared.features(),
                         shared.frames());
    for (UserId user : GroupMembers(g)) {
      const int src = shared.UserIndex(user);
      const int dst = cube.RegisterUser(user);
      for (int f = 0; f < shared.features(); ++f) {
        for (int d = 0; d < shared.days(); ++d) {
          for (int t = 0; t < shared.frames(); ++t) {
            cube.At(dst, f, d, t) = shared.At(src, f, d, t);
          }
        }
      }
    }
    cubes.push_back(std::move(cube));
  }
  return cubes;
}

DetectorSpec GroupSpec(int threads) {
  DetectorSpec spec;
  spec.deviation.omega = 10;
  spec.deviation.matrix_days = 7;
  spec.ensemble.encoder_dims = {8, 4};
  spec.ensemble.optimizer = OptimizerKind::kAdam;
  spec.ensemble.learning_rate = 1e-3f;
  spec.ensemble.train.epochs = 3;
  spec.ensemble.train.batch_size = 16;
  spec.ensemble.threads = threads;
  spec.critic_votes = 2;
  return spec;
}

std::vector<DetectionGroup> Groups(const std::vector<const MeasurementCube*>& cubes,
                                   const std::string& checkpoint_base = "") {
  std::vector<DetectionGroup> groups(kGroups);
  for (int g = 0; g < kGroups; ++g) {
    groups[g].cube = cubes[cubes.size() == 1 ? 0 : g];
    groups[g].members = GroupMembers(g);
    if (!checkpoint_base.empty()) {
      groups[g].checkpoint_dir = checkpoint_base + "/g" + std::to_string(g);
    }
  }
  return groups;
}

std::vector<DetectionOutput> RunAll(const DetectorSpec& spec,
                                    const std::vector<DetectionGroup>& groups) {
  return Detector(spec).RunGroups(groups, GroupCatalog(), 0, 35, 35, kDays);
}

// Everything a DetectionOutput carries, compared bit for bit.
void ExpectSameOutput(const DetectionOutput& x, const DetectionOutput& y,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(x.members, y.members);
  EXPECT_EQ(x.degraded_aspects, y.degraded_aspects);
  ASSERT_EQ(x.grid.aspects(), y.grid.aspects());
  ASSERT_EQ(x.grid.users(), y.grid.users());
  ASSERT_EQ(x.grid.day_begin(), y.grid.day_begin());
  ASSERT_EQ(x.grid.day_end(), y.grid.day_end());
  for (int a = 0; a < x.grid.aspects(); ++a) {
    for (int u = 0; u < x.grid.users(); ++u) {
      for (int d = x.grid.day_begin(); d < x.grid.day_end(); ++d) {
        ASSERT_EQ(x.grid.At(a, u, d), y.grid.At(a, u, d))
            << "aspect " << a << " user " << u << " day " << d;
      }
    }
  }
  ASSERT_EQ(x.list.size(), y.list.size());
  for (std::size_t i = 0; i < x.list.size(); ++i) {
    EXPECT_EQ(x.list[i].user_idx, y.list[i].user_idx);
    EXPECT_EQ(x.list[i].priority, y.list[i].priority);
  }
  ASSERT_EQ(x.train_summaries.size(), y.train_summaries.size());
  for (std::size_t a = 0; a < x.train_summaries.size(); ++a) {
    const AspectTrainSummary& sx = x.train_summaries[a];
    const AspectTrainSummary& sy = y.train_summaries[a];
    EXPECT_EQ(sx.name, sy.name);
    EXPECT_EQ(sx.attempts, sy.attempts);
    EXPECT_EQ(sx.ok, sy.ok);
    EXPECT_EQ(sx.epochs, sy.epochs);
    EXPECT_EQ(sx.epoch_losses, sy.epoch_losses);
  }
}

TEST(MultiGroupDetectionTest, EqualsPerGroupRunAtAnyThreadCount) {
  const MeasurementCube shared = SyntheticCube(kGroups * kGroupUsers, kDays, 6, 2);
  const std::vector<MeasurementCube> demux = DemuxCubes(shared);
  const std::vector<const MeasurementCube*> layouts[] = {
      {&shared}, {&demux[0], &demux[1], &demux[2]}};
  for (const auto& cubes : layouts) {
    const std::vector<DetectionGroup> groups = Groups(cubes);
    // Reference: each group alone, serially.
    std::vector<DetectionOutput> solo;
    for (const DetectionGroup& group : groups) {
      solo.push_back(Detector(GroupSpec(1)).Run(
          *group.cube, GroupCatalog(), group.members, 0, 35, 35, kDays));
    }
    for (int threads : {1, 2, 4}) {
      const std::vector<DetectionOutput> joint =
          RunAll(GroupSpec(threads), groups);
      ASSERT_EQ(joint.size(), solo.size());
      for (int g = 0; g < kGroups; ++g) {
        ExpectSameOutput(joint[g], solo[g],
                         std::string(cubes.size() == 1 ? "shared" : "demux") +
                             " cube, threads=" + std::to_string(threads) +
                             ", group " + std::to_string(g));
      }
    }
  }
}

TEST(MultiGroupDetectionTest, DivergenceRetriesOnlyItsOwnModel) {
  const MeasurementCube shared = SyntheticCube(kGroups * kGroupUsers, kDays, 6, 2);
  std::vector<MeasurementCube> demux = DemuxCubes(shared);
  const std::vector<DetectionGroup> groups =
      Groups({&demux[0], &demux[1], &demux[2]});
  const std::vector<DetectionOutput> clean = RunAll(GroupSpec(4), groups);
  // Poison group 1's aspect "b" (feature 1): its loss is NaN on every
  // attempt, so that one model retries and then degrades.
  for (int u = 0; u < demux[1].users(); ++u) {
    for (int d = 0; d < kDays; ++d) {
      demux[1].At(u, 1, d, 0) = std::nanf("");
    }
  }
  for (int threads : {1, 4}) {
    const std::vector<DetectionOutput> poisoned =
        RunAll(GroupSpec(threads), groups);
    const std::string at = "threads=" + std::to_string(threads);
    ExpectSameOutput(poisoned[0], clean[0], at + ", group 0");
    ExpectSameOutput(poisoned[2], clean[2], at + ", group 2");
    const DetectionOutput& hit = poisoned[1];
    ASSERT_EQ(hit.degraded_aspects, std::vector<std::string>{"b"}) << at;
    ASSERT_EQ(hit.train_summaries.size(), 3u);
    const EnsembleConfig defaults;
    EXPECT_EQ(hit.train_summaries[1].attempts, defaults.max_train_attempts);
    EXPECT_FALSE(hit.train_summaries[1].ok);
    // The group's healthy models are untouched by the retries.
    for (int a : {0, 2}) {
      EXPECT_EQ(hit.train_summaries[a].attempts, 1) << at;
      EXPECT_EQ(hit.train_summaries[a].epoch_losses,
                clean[1].train_summaries[a].epoch_losses)
          << at << ", aspect " << a;
    }
    EXPECT_EQ(hit.grid.aspects(), 2);
  }
}

TEST(MultiGroupDetectionTest, CheckpointsResumeAcrossGroups) {
  const MeasurementCube shared = SyntheticCube(kGroups * kGroupUsers, kDays, 6, 2);
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("acobe-multigroup-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(base);
  const std::vector<DetectionGroup> groups = Groups({&shared}, base);
  DetectorSpec spec = GroupSpec(4);
  const std::vector<DetectionOutput> first = RunAll(spec, groups);
  for (int g = 0; g < kGroups; ++g) {
    for (const char* aspect : {"a", "b", "c"}) {
      EXPECT_TRUE(std::filesystem::exists(base + "/g" + std::to_string(g) +
                                          "/aspect_" + aspect + ".ae"))
          << "group " << g << " aspect " << aspect;
    }
  }
  // One model lost (a run killed before it finished): only it retrains.
  std::filesystem::remove(base + "/g2/aspect_c.ae");
  spec.ensemble.resume = true;
  for (int threads : {1, 4}) {
    spec.ensemble.threads = threads;
    const std::vector<DetectionOutput> resumed = RunAll(spec, groups);
    for (int g = 0; g < kGroups; ++g) {
      const std::string at =
          "threads=" + std::to_string(threads) + ", group " + std::to_string(g);
      ASSERT_EQ(resumed[g].grid.aspects(), first[g].grid.aspects()) << at;
      for (int a = 0; a < first[g].grid.aspects(); ++a) {
        for (int u = 0; u < first[g].grid.users(); ++u) {
          for (int d = first[g].grid.day_begin(); d < first[g].grid.day_end();
               ++d) {
            ASSERT_EQ(resumed[g].grid.At(a, u, d), first[g].grid.At(a, u, d))
                << at;
          }
        }
      }
      for (int a = 0; a < 3; ++a) {
        // The first resumed run retrains g2/c and checkpoints it again,
        // so the second run resumes everything.
        const bool retrained = threads == 1 && g == 2 && a == 2;
        EXPECT_EQ(resumed[g].train_summaries[a].resumed, !retrained)
            << at << ", aspect " << a;
      }
    }
  }
  std::filesystem::remove_all(base);
}

TEST(MultiGroupDetectionTest, LiveTrainingBatchesNeverExceedWorkers) {
  if (!telemetry::MetricsEnabled()) {
    telemetry::EnableMetrics(true);
    if (!telemetry::MetricsEnabled()) GTEST_SKIP() << "telemetry compiled out";
  }
  const MeasurementCube shared = SyntheticCube(kGroups * kGroupUsers, kDays, 6, 2);
  const std::vector<DetectionGroup> groups = Groups({&shared});
  telemetry::Gauge& peak = telemetry::GetGauge("ensemble.train_batches_peak");
  for (int threads : {1, 2, 4}) {
    peak.Reset();
    RunAll(GroupSpec(threads), groups);  // 9 jobs
    EXPECT_GE(peak.value(), 1.0) << "threads=" << threads;
    EXPECT_LE(peak.value(), threads) << "threads=" << threads;
  }
  telemetry::EnableMetrics(false);
}

}  // namespace
