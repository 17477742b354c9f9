// Tests for the gradual-fill replica lifecycle (§4.8).

#include "sim/lifecycle.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "sim/simulator.h"
#include "tape/drive.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

// Spare-capacity starting layout per the paper's recommendation: hot data
// on a dedicated tape, the other tapes only part-filled with cold data
// (spread, not packed), leaving free space at every tape's end for the
// replicas to come.
LayoutSpec SpareLayout(Jukebox* probe) {
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  LayoutSpec spare;
  spare.layout = HotLayout::kVertical;
  spare.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(*probe, replicated);
  return spare;
}

struct Rig {
  Rig() : jukebox(PaperJukebox()) {
    catalog.emplace(
        LayoutBuilder::Build(&jukebox, SpareLayout(&jukebox)).value());
    scheduler.emplace(&jukebox, &*catalog, TapePolicy::kMaxBandwidth);
  }
  Jukebox jukebox;
  std::optional<Catalog> catalog;
  std::optional<EnvelopeScheduler> scheduler;
};

/// `sim` on `rig` with the gradual fill `lifecycle`.
LifecycleStats RunFill(Rig* rig, SimulationConfig sim,
                       const LifecycleConfig& lifecycle) {
  sim.lifecycle = lifecycle;
  Simulator simulator(&rig->jukebox, &*rig->catalog, &*rig->scheduler, sim);
  return simulator.Run().lifecycle;
}

SimulationConfig LongSim() {
  SimulationConfig config;
  config.duration_seconds = 1'500'000;
  config.warmup_seconds = 0;  // epochs cover the whole run
  config.workload.queue_length = 60;
  config.workload.seed = 51;
  return config;
}

TEST(LifecycleConfig, Validation) {
  LifecycleConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.fill_budget_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = LifecycleConfig{};
  config.num_epochs = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(Lifecycle, FillTargetIsOneCopyOnEveryTape) {
  // The spare layout holds each hot block once; the fill target is the
  // missing copies that put one on every tape.
  Rig rig;
  ReplicaFiller filler(&rig.jukebox, &*rig.catalog, LifecycleConfig{},
                       LongSim().duration_seconds);
  int64_t missing = 0;
  for (BlockId b = 0; b < rig.catalog->num_hot_blocks(); ++b) {
    ASSERT_EQ(rig.catalog->ReplicasOf(b).size(), 1u);
    missing += rig.jukebox.num_tapes() - 1;
  }
  ASSERT_GT(missing, 0);
  const LifecycleStats before_run = filler.Finalize(0);
  EXPECT_EQ(before_run.fill_target, missing);
  EXPECT_EQ(before_run.replicas_written, 0);
}

TEST(Lifecycle, ReplicasFillAndPerformanceImproves) {
  Rig rig;
  LifecycleConfig lifecycle;
  lifecycle.num_epochs = 6;
  lifecycle.fill_budget_seconds = 240;
  const LifecycleStats stats = RunFill(&rig, LongSim(), lifecycle);
  const std::vector<EpochStats>& epochs = stats.epochs;
  ASSERT_EQ(epochs.size(), 6u);

  // The fill fraction is monotone and reaches (near) completion.
  for (size_t e = 1; e < epochs.size(); ++e) {
    EXPECT_GE(epochs[e].fill_fraction, epochs[e - 1].fill_fraction);
  }
  EXPECT_GT(epochs.back().fill_fraction, 0.95);
  EXPECT_EQ(stats.replicas_written, stats.fill_target);

  // Throughput in the final (fully replicated) epoch beats the first.
  EXPECT_GT(epochs.back().requests_per_minute,
            epochs.front().requests_per_minute);
}

TEST(Lifecycle, CatalogAndTapesStayConsistent) {
  Rig rig;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 240;
  RunFill(&rig, LongSim(), lifecycle);
  // Every catalog replica matches the tape contents.
  for (BlockId b = 0; b < rig.catalog->num_blocks(); ++b) {
    for (const Replica& replica : rig.catalog->ReplicasOf(b)) {
      EXPECT_EQ(rig.jukebox.tape(replica.tape).BlockAtSlot(replica.slot), b);
    }
  }
  // Hot blocks reached the target copy count.
  for (BlockId b = 0; b < rig.catalog->num_hot_blocks(); ++b) {
    EXPECT_EQ(rig.catalog->ReplicasOf(b).size(), 10u);
  }
  // Cold blocks were never replicated.
  for (BlockId b = rig.catalog->num_hot_blocks();
       b < rig.catalog->num_blocks(); ++b) {
    EXPECT_EQ(rig.catalog->ReplicasOf(b).size(), 1u);
  }
}

TEST(Lifecycle, ZeroBudgetWritesNothingViaPiggyback) {
  Rig rig;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 0;
  lifecycle.fill_on_idle = false;
  SimulationConfig sim_config = LongSim();
  sim_config.duration_seconds = 200'000;
  EXPECT_EQ(RunFill(&rig, sim_config, lifecycle).replicas_written, 0);
}

TEST(Lifecycle, OpenModelDriveWorkFitsInRun) {
  // Arrivals during a fill are delivered at their own timestamps, so the
  // clock never runs backwards and the drive's busy time fits in the run.
  Rig rig;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 240;
  SimulationConfig sim_config = LongSim();
  sim_config.workload.model = QueuingModel::kOpen;
  sim_config.workload.mean_interarrival_seconds = 120;
  ASSERT_GT(RunFill(&rig, sim_config, lifecycle).replicas_written, 0);
  EXPECT_LE(rig.jukebox.counters().BusySeconds(),
            sim_config.duration_seconds);
}

// Wraps a ReplicaFiller and tracks, per mount between client reads, the
// fills that wrote replicas and their seconds (an idle quantum's own tape
// switch excluded).
class FillPerMountProbe : public BackgroundWork {
 public:
  FillPerMountProbe(ReplicaFiller* filler, Jukebox* jukebox)
      : filler_(filler), jukebox_(jukebox) {}

  double AtSweepBoundary(double now) override {
    const int64_t written = filler_->replicas_written();
    const double seconds = filler_->AtSweepBoundary(now);
    Charge(seconds, written);
    return seconds;
  }
  double NextIdleWorkTime(double now) override {
    return filler_->NextIdleWorkTime(now);
  }
  Quantum IdleQuantum(double now) override {
    const int64_t written = filler_->replicas_written();
    const JukeboxCounters before = jukebox_->counters();
    const Quantum quantum = filler_->IdleQuantum(now);
    const JukeboxCounters& after = jukebox_->counters();
    const double switching = (after.switch_seconds - before.switch_seconds) +
                             (after.rewind_seconds - before.rewind_seconds);
    Charge(quantum.seconds - switching, written);
    return quantum;
  }
  void OnClientCompletion(const Request& request, double now) override {
    filler_->OnClientCompletion(request, now);
    seconds_ = 0;
    fills_ = 0;
  }

  double max_seconds() const { return max_seconds_; }
  int64_t max_fills() const { return max_fills_; }

 private:
  void Charge(double seconds, int64_t written_before) {
    if (jukebox_->counters().tape_switches != switches_) {
      switches_ = jukebox_->counters().tape_switches;
      seconds_ = 0;
      fills_ = 0;
    }
    if (filler_->replicas_written() > written_before) ++fills_;
    seconds_ += seconds;
    max_seconds_ = std::max(max_seconds_, seconds_);
    max_fills_ = std::max(max_fills_, fills_);
  }

  ReplicaFiller* filler_;
  Jukebox* jukebox_;
  int64_t switches_ = -1;
  double seconds_ = 0;
  int64_t fills_ = 0;
  double max_seconds_ = 0;
  int64_t max_fills_ = 0;
};

TEST(Lifecycle, OpenModelFillPerMountWithinBudget) {
  // An idle fill spends the budget on its mount; the next boundary must
  // not fill that mount again before a client read sweep has run on it.
  // The open model's idle-drive pattern, driven by hand: idle fills, each
  // followed by boundaries before and after a client read.
  Rig rig;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 240;
  ReplicaFiller filler(&rig.jukebox, &*rig.catalog, lifecycle,
                       LongSim().duration_seconds);
  FillPerMountProbe probe(&filler, &rig.jukebox);
  const Request read{0, 0, 0.0};
  double now = 0;
  for (int round = 0; round < 20 && filler.NextIdleWorkTime(now) <= now;
       ++round) {
    now += probe.IdleQuantum(now).seconds;
    now += probe.AtSweepBoundary(now);  // no read since the idle fill
    probe.OnClientCompletion(read, now);
    now += probe.AtSweepBoundary(now);  // piggybacks on the read sweep
    now += probe.AtSweepBoundary(now);  // no read since that fill
  }
  ASSERT_GT(filler.replicas_written(), 0);
  EXPECT_EQ(probe.max_fills(), 1);

  // That one fill may overrun the budget by its last write: at most a
  // locate across the whole tape plus one block.
  Drive drive(&rig.jukebox.model());
  drive.Load(0);
  const Tape& tape = rig.jukebox.tape(0);
  const double last_write =
      drive.LocateTo(tape.PositionOfSlot(tape.num_slots() - 1)) +
      drive.Read(rig.jukebox.config().block_size_mb);
  EXPECT_LE(probe.max_seconds(), lifecycle.fill_budget_seconds + last_write);
}

TEST(Lifecycle, NoFillMatchesPlainSimulator) {
  SimulationConfig sim_config = LongSim();
  sim_config.duration_seconds = 200'000;
  Rig rig_a;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 0;
  lifecycle.fill_on_idle = false;
  int64_t completed = 0;
  const LifecycleStats with = RunFill(&rig_a, sim_config, lifecycle);
  for (const EpochStats& epoch : with.epochs) {
    completed += epoch.completed_requests;
  }

  Rig rig_b;
  Simulator plain(&rig_b.jukebox, &*rig_b.catalog, &*rig_b.scheduler,
                  sim_config);
  const SimulationResult result = plain.Run();
  EXPECT_EQ(completed, result.completed_total);
}

TEST(Catalog, AddReplicaExtendsBlock) {
  std::vector<std::vector<Replica>> replicas = {{{0, 0, 0}}};
  Catalog catalog(std::move(replicas), 1);
  catalog.AddReplica(0, Replica{1, 3, 48});
  EXPECT_EQ(catalog.ReplicasOf(0).size(), 2u);
  EXPECT_EQ(catalog.TotalCopies(), 2);
  ASSERT_NE(catalog.ReplicaOn(0, 1), nullptr);
  EXPECT_EQ(catalog.ReplicaOn(0, 1)->position, 48);
}

TEST(CatalogDeathTest, AddReplicaRejectsDuplicateTape) {
  std::vector<std::vector<Replica>> replicas = {{{0, 0, 0}}};
  Catalog catalog(std::move(replicas), 1);
  EXPECT_DEATH(catalog.AddReplica(0, Replica{0, 5, 80}), "already has");
}

}  // namespace
}  // namespace tapejuke
