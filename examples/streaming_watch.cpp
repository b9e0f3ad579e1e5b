// Streaming watch: train the ensemble once, persist it as per-aspect
// checkpoints and reload it without retraining (EnsembleConfig's
// checkpoint_dir + resume, the one model file format), then replay the
// following weeks day by day as an operator would — score the new day,
// and let the persistent-alert monitor deduplicate daily firings into
// actionable alerts (with waveform context from the advanced critic).
//
// Run:  ./build/examples/streaming_watch

#include <cstdio>
#include <filesystem>

#include "baselines/experiment.h"
#include "core/detector.h"
#include "core/ensemble.h"
#include "core/monitor.h"
#include "core/waveform_critic.h"

using namespace acobe;
using namespace acobe::baselines;

int main() {
  // A department with a scenario-2 insider (job hunt, then data theft).
  CertExperimentConfig config;
  config.sim.org.departments = 1;
  config.sim.org.users_per_department = 25;
  config.sim.org.extra_users = 0;
  config.sim.start = Date(2010, 1, 2);
  config.sim.end = Date(2011, 3, 31);
  config.sim.profiles.rate_scale = 0.4;
  config.sim.seed = 321;
  config.scenarios.push_back(
      {sim::InsiderScenarioKind::kScenario2, 0, Date(2010, 12, 1), 45});
  config.build_fine_hourly = false;
  config.build_coarse = false;
  const CertData data = BuildCertData(config);
  const sim::InsiderScenario& insider = data.scenarios[0];

  const ScenarioWindows w = data.WindowsFor(insider, 30, 30);
  DetectorSpec spec = MakeVariantSpec(VariantKind::kAcobe,
                                      ScaleProfile::Bench());
  // Provenance: attribute flagged users to compound-matrix cells and
  // watch for score drift between the training and scoring windows.
  spec.attribution.enabled = true;
  spec.attribution.top_users = 3;
  spec.drift.enabled = true;
  const Detector detector(spec);

  std::printf("training on days [%d, %d) and scoring [%d, %d)...\n",
              w.train_begin, w.train_end, w.test_begin, w.test_end);
  const DetectionOutput out = detector.Run(
      data.fine->cube(), data.fine->catalog(),
      data.department_users[0], w.train_begin, w.train_end, w.test_begin,
      w.test_end);

  // Train a standalone ensemble once into a checkpoint directory, then
  // reload it without retraining: a second Train with `resume` loads
  // every aspect's checkpoint and reads no training samples.
  {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "acobe_streaming_watch";
    std::filesystem::remove_all(dir);
    EnsembleConfig ecfg;
    ecfg.encoder_dims = {16, 8};
    ecfg.train.epochs = 4;
    ecfg.checkpoint_dir = dir.string();
    NormalizedDayBuilder nd(&data.fine->cube(), w.train_begin, w.train_end);
    AspectEnsemble small(data.fine->catalog().aspects(), ecfg);
    small.Train(nd, 5, w.train_begin, w.train_end);
    ecfg.resume = true;
    AspectEnsemble reloaded(data.fine->catalog().aspects(), ecfg);
    reloaded.Train(nd, 5, w.train_begin, w.train_end);
    int resumed = 0;
    for (const AspectTrainSummary& s : reloaded.train_summaries()) {
      resumed += s.resumed ? 1 : 0;
    }
    std::filesystem::remove_all(dir);
    std::printf("checkpoint reload ok (%d of %d aspects resumed)\n", resumed,
                reloaded.aspect_count());
  }

  // The monitor turns daily lists into deduplicated alerts.
  MonitorConfig mcfg;
  mcfg.n_votes = 2;
  mcfg.top_positions = 2;
  mcfg.persistence_days = 3;
  const auto alerts = FindPersistentAlerts(out.grid, mcfg);
  std::printf("\n%zu persistent alert(s) over %d scored days:\n",
              alerts.size(), out.grid.day_count());
  for (const Alert& alert : alerts) {
    const UserId user = out.members[alert.user_idx];
    // Waveform context for the analyst.
    WaveformCriticConfig wcfg;
    WaveformFeatures best;
    for (int a = 0; a < out.grid.aspects(); ++a) {
      const auto f = AnalyzeWaveform(out.grid, a, alert.user_idx, wcfg);
      if (f.peak_z > best.peak_z) best = f;
    }
    std::printf("  user %-8s days %d..%d (%d firing days)  waveform: %s "
                "(peak z %.1f)  peak: %s day %d score %.2f%s\n",
                data.store.users().NameOf(user).c_str(),
                alert.first_day, alert.last_day, alert.firing_days,
                ToString(best.kind), best.peak_z,
                alert.peak_aspect_name.c_str(), alert.peak_day,
                alert.peak_score,
                user == insider.user ? "   <-- the insider" : "");
  }

  // Per-user attribution: which compound-matrix cells drove the score.
  std::printf("\nattribution (top reconstruction-error cells):\n");
  for (const UserAttribution& ua : out.attributions) {
    const UserId user = out.members[ua.user_idx];
    std::printf("  %s (priority %.0f)%s\n",
                data.store.users().NameOf(user).c_str(), ua.priority,
                user == insider.user ? "   <-- the insider" : "");
    for (const AspectAttribution& aa : ua.aspects) {
      std::printf("    %-8s peak day %d score %.3f (group share %.0f%%)\n",
                  aa.aspect_name.c_str(), aa.peak_day, aa.peak_score,
                  100.0f * aa.group_error_fraction);
      for (const AttributedCell& cell : aa.cells) {
        std::printf("      feature %2d %s day %d err %.4f (%2.0f%%)%s\n",
                    cell.feature_pos, cell.group ? "[group]" : "[indiv]",
                    cell.day, cell.error, 100.0f * cell.share,
                    cell.has_group_input ? " (see group)" : "");
      }
    }
  }

  // Drift gauges: scoring-window score distribution vs training window.
  std::printf("\nscore drift vs training window:\n");
  for (const AspectDrift& drift : out.drift) {
    std::printf("  %-8s %s", drift.aspect_name.c_str(),
                drift.alert ? "ALERT" : "ok   ");
    for (const QuantileShift& shift : drift.shifts) {
      std::printf("  q%g %+.1f%%", 100.0 * shift.q, 100.0 * shift.rel_shift);
    }
    std::printf("\n");
  }
  return 0;
}
