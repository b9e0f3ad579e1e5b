// Tests for the extension modules: the waveform-aware advanced critic
// (the paper's Section VII.B future work), the operational monitor, and
// the discrete-event sequence model (Section VI.B.1).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/monitor.h"
#include "core/waveform_critic.h"
#include "features/sequence_model.h"

namespace acobe {
namespace {

// --- Waveform critic --------------------------------------------------------

ScoreGrid GridFromSeries(const std::vector<std::vector<float>>& users) {
  ScoreGrid grid({"a"}, static_cast<int>(users.size()), 0,
                 static_cast<int>(users[0].size()));
  for (std::size_t u = 0; u < users.size(); ++u) {
    for (std::size_t d = 0; d < users[u].size(); ++d) {
      grid.At(0, static_cast<int>(u), static_cast<int>(d)) = users[u][d];
    }
  }
  return grid;
}

std::vector<float> Flat(int n, float v) { return std::vector<float>(n, v); }

TEST(WaveformCriticTest, ClassifiesFlat) {
  const auto grid = GridFromSeries({Flat(30, 0.1f)});
  const auto f = AnalyzeWaveform(grid, 0, 0, WaveformCriticConfig{});
  EXPECT_EQ(f.kind, WaveformKind::kFlat);
}

TEST(WaveformCriticTest, ClassifiesBurstDecay) {
  // Quiet baseline, burst, then a long smooth decay.
  std::vector<float> s = Flat(12, 0.1f);
  float level = 1.0f;
  for (int i = 0; i < 18; ++i) {
    s.push_back(level);
    level *= 0.85f;
  }
  const auto grid = GridFromSeries({s});
  const auto f = AnalyzeWaveform(grid, 0, 0, WaveformCriticConfig{});
  EXPECT_EQ(f.kind, WaveformKind::kBurstDecay);
  EXPECT_GT(f.peak_z, 2.5);
  EXPECT_GT(f.decay_fraction, 0.9);
}

TEST(WaveformCriticTest, ClassifiesRecentSpike) {
  std::vector<float> s = Flat(28, 0.1f);
  s.push_back(1.0f);
  s.push_back(1.1f);
  const auto grid = GridFromSeries({s});
  const auto f = AnalyzeWaveform(grid, 0, 0, WaveformCriticConfig{});
  EXPECT_EQ(f.kind, WaveformKind::kRecentSpike);
  EXPECT_TRUE(f.recent);
}

TEST(WaveformCriticTest, ClassifiesChaoticOldRaise) {
  // Long quiet baseline, then rough oscillation (never a smooth decay)
  // that ends well before the window does.
  std::vector<float> s = Flat(34, 0.1f);
  for (int i = 0; i < 10; ++i) s.push_back(i % 2 ? 1.2f : 0.4f);
  for (int i = 0; i < 6; ++i) s.push_back(0.12f);
  WaveformCriticConfig cfg;
  cfg.recent_days = 3;
  const auto grid = GridFromSeries({s});
  const auto f = AnalyzeWaveform(grid, 0, 0, cfg);
  EXPECT_EQ(f.kind, WaveformKind::kChaotic);
  EXPECT_GT(f.roughness, 0.5);
}

TEST(WaveformCriticTest, BenignBurstRankedBelowAttack) {
  // User 0: burst-decay (new project). User 1: recent chaotic raise
  // (attack-like) with the *same* magnitude. User 2: flat.
  std::vector<float> benign = Flat(12, 0.1f);
  float level = 1.2f;
  for (int i = 0; i < 18; ++i) {
    benign.push_back(level);
    level *= 0.85f;
  }
  std::vector<float> attack = Flat(22, 0.1f);
  for (int i = 0; i < 8; ++i) attack.push_back(i % 2 ? 0.9f : 0.5f);
  const auto grid = GridFromSeries({benign, attack, Flat(30, 0.1f)});

  WaveformCriticConfig cfg;
  cfg.n_votes = 1;
  const auto list = WaveformRankUsers(grid, cfg);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].user_idx, 1);  // the attack-like user leads
  // The plain critic would rank them by magnitude alone (benign first).
  const auto plain = RankUsers(grid, 1, cfg.top_k_days);
  EXPECT_EQ(plain[0].user_idx, 0);
}

// --- Monitor ---------------------------------------------------------------

TEST(MonitorTest, PersistentAlertOpensAndCloses) {
  // 3 users with deterministic baselines; user 1 tops the list only on
  // days 5..12 (user 0 tops it otherwise).
  ScoreGrid grid({"a"}, 3, 0, 20);
  for (int d = 0; d < 20; ++d) {
    grid.At(0, 0, d) = 0.30f;
    grid.At(0, 1, d) = (d >= 5 && d <= 12) ? 1.0f : 0.10f;
    grid.At(0, 2, d) = 0.20f;
  }
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 3;
  cfg.cooloff_days = 2;
  const auto alerts = FindPersistentAlerts(grid, cfg);
  const Alert* user1 = nullptr;
  for (const Alert& a : alerts) {
    if (a.user_idx == 1) user1 = &a;
  }
  ASSERT_NE(user1, nullptr);
  EXPECT_EQ(user1->first_day, 5);
  EXPECT_EQ(user1->last_day, 12);
  EXPECT_GE(user1->firing_days, 6);
}

TEST(MonitorTest, NoAlertWithoutPersistence) {
  ScoreGrid grid({"a"}, 2, 0, 10);
  for (int d = 0; d < 10; ++d) {
    grid.At(0, 0, d) = 0.1f;
    grid.At(0, 1, d) = 0.5f;  // user 1 leads every ordinary day
  }
  grid.At(0, 0, 4) = 1.0f;  // user 0: a single-day spike only
  MonitorConfig cfg;
  cfg.top_positions = 1;
  cfg.persistence_days = 2;
  const auto alerts = FindPersistentAlerts(grid, cfg);
  for (const Alert& a : alerts) EXPECT_NE(a.user_idx, 0);
}

// --- SequenceModel -----------------------------------------------------------

TEST(SequenceModelTest, LearnsDeterministicPattern) {
  SequenceModel model(2, 4);
  std::vector<std::uint32_t> pattern;
  for (int i = 0; i < 50; ++i) {
    pattern.push_back(1);
    pattern.push_back(2);
    pattern.push_back(3);
  }
  model.Train(pattern);
  // In-pattern continuation is likely; out-of-pattern is surprising.
  const std::vector<std::uint32_t> ctx = {1, 2};
  EXPECT_GT(model.Probability(ctx, 3), 0.8);
  EXPECT_LT(model.Probability(ctx, 1), 0.1);
  const std::vector<std::uint32_t> normal = {1, 2, 3, 1, 2, 3};
  const std::vector<std::uint32_t> abnormal = {1, 2, 1, 2, 1, 1};
  EXPECT_LT(model.MeanSurprise(normal), model.MeanSurprise(abnormal));
}

TEST(SequenceModelTest, UnseenContextFallsBackToUniform) {
  SequenceModel model(2, 10);
  const std::vector<std::uint32_t> ctx = {42, 43};
  EXPECT_DOUBLE_EQ(model.Probability(ctx, 7), 1.0 / 10.0);
}

TEST(SequenceModelTest, OrderValidation) {
  EXPECT_THROW(SequenceModel(0), std::invalid_argument);
  SequenceModel model(1);
  EXPECT_EQ(model.order(), 1);
  EXPECT_DOUBLE_EQ(model.MeanSurprise(std::vector<std::uint32_t>{1}), 0.0);
}

TEST(DailySurpriseTrackerTest, FlagsBehaviorChange) {
  DailySurpriseTracker tracker(2);
  // 10 days of habitual pattern, then one day of chaos.
  Rng rng(53);
  for (std::int32_t day = 0; day < 10; ++day) {
    for (int i = 0; i < 30; ++i) {
      tracker.Observe(1, day, static_cast<std::uint32_t>(i % 3 + 1));
    }
  }
  for (int i = 0; i < 30; ++i) {
    tracker.Observe(1, 10, static_cast<std::uint32_t>(rng.NextInt(10, 30)));
  }
  tracker.Flush();
  const double habitual = tracker.DaySurprise(1, 9);
  const double chaotic = tracker.DaySurprise(1, 10);
  EXPECT_LT(habitual, chaotic);
  EXPECT_GT(chaotic, 2.0);
  // Unknown user/day yields 0.
  EXPECT_DOUBLE_EQ(tracker.DaySurprise(2, 0), 0.0);
}

}  // namespace
}  // namespace acobe
