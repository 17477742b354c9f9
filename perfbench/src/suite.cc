#include "suite.h"

#include <algorithm>
#include <cmath>

#include "core/sweep_runner.h"
#include "util/check.h"

namespace perfbench {

using tapejuke::AlgorithmSpec;
using tapejuke::ExperimentConfig;
using tapejuke::HotLayout;
using tapejuke::Jukebox;
using tapejuke::LayoutBuilder;
using tapejuke::QueuingModel;

namespace {

/// The paper's simulated length per point (fig benches' default).
constexpr double kPaperSimSeconds = 2'000'000;

/// The figure benches' PaperBaseConfig: PH-10 RH-40 NR-0 SP-0, 16 MB
/// blocks, 10 tapes, dynamic max-bandwidth, closed queuing, 10% warm-up.
ExperimentConfig PaperBase(uint64_t seed, double sim_seconds) {
  ExperimentConfig config;
  config.jukebox.num_tapes = 10;
  config.jukebox.block_size_mb = 16;
  config.layout.hot_fraction = 0.10;
  config.layout.num_replicas = 0;
  config.layout.start_position = 0.0;
  config.sim.duration_seconds = sim_seconds;
  config.sim.warmup_seconds = sim_seconds * 0.1;
  config.sim.workload.model = QueuingModel::kClosed;
  config.sim.workload.hot_request_fraction = 0.40;
  config.sim.workload.seed = seed;
  config.sim.faults.max_read_retries = 3;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

AlgorithmSpec Algo(const char* name) {
  return AlgorithmSpec::Parse(name).value();
}

const int64_t kQueues[] = {20, 40, 60, 80, 100, 120, 140};

Point MakePoint(std::string label, Engine engine,
                const ExperimentConfig& config) {
  Point point;
  point.label = std::move(label);
  point.engine = engine;
  point.config = config;
  return point;
}

/// A bench's AddLoadSweep under closed queuing.
void AddLoadSweep(Grid* grid, const std::string& series,
                  ExperimentConfig config) {
  for (const int64_t queue : kQueues) {
    config.sim.workload.queue_length = queue;
    grid->points.push_back(
        MakePoint(series + "/q" + std::to_string(queue), Engine::kSimulator,
              config));
  }
}

Grid SweepGrid(const std::string& name) {
  Grid grid;
  grid.name = name;
  grid.sweep = true;
  return grid;
}

void AddFigureGrids(const ExperimentConfig& base, Workload* w) {
  {  // Figure 3: block size x queue length.
    Grid grid = SweepGrid("fig03_transfer_size");
    for (const int64_t block : {1, 2, 4, 8, 16, 32, 64}) {
      for (const int64_t queue : {20, 60, 100, 140}) {
        ExperimentConfig config = base;
        config.jukebox.block_size_mb = block;
        config.sim.workload.queue_length = queue;
        grid.points.push_back(MakePoint("block-" + std::to_string(block) +
                                        "MB/q" + std::to_string(queue),
                                    Engine::kSimulator, config));
      }
    }
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 4: every greedy algorithm, no replication.
    Grid grid = SweepGrid("fig04_sched_no_replication");
    for (const char* name :
         {"fifo", "static-round-robin", "static-max-requests",
          "static-max-bandwidth", "static-oldest-max-requests",
          "static-oldest-max-bandwidth", "dynamic-round-robin",
          "dynamic-max-requests", "dynamic-max-bandwidth",
          "dynamic-oldest-max-requests", "dynamic-oldest-max-bandwidth"}) {
      ExperimentConfig config = base;
      config.algorithm = Algo(name);
      AddLoadSweep(&grid, name, config);
    }
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 5: hot-data placement.
    Grid grid = SweepGrid("fig05_hot_placement");
    for (const double sp : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      ExperimentConfig config = base;
      config.layout.start_position = sp;
      AddLoadSweep(&grid, "SP-" + std::to_string(sp).substr(0, 4), config);
    }
    ExperimentConfig vertical = base;
    vertical.layout.layout = HotLayout::kVertical;
    AddLoadSweep(&grid, "vertical", vertical);
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 6: replica count, vertical layout, replicas at tape ends.
    Grid grid = SweepGrid("fig06_replica_count");
    ExperimentConfig vertical = base;
    vertical.layout.layout = HotLayout::kVertical;
    vertical.layout.start_position = 1.0;
    for (const int nr : {0, 1, 3, 5, 7, 9}) {
      ExperimentConfig config = vertical;
      config.layout.num_replicas = nr;
      if (nr == 0) config.layout.start_position = 0.0;
      AddLoadSweep(&grid, "NR-" + std::to_string(nr), config);
    }
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 7: replica placement at full replication.
    Grid grid = SweepGrid("fig07_replica_placement");
    for (const double sp : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      ExperimentConfig config = base;
      config.layout.num_replicas = 9;
      config.layout.start_position = sp;
      AddLoadSweep(&grid, "SP-" + std::to_string(sp).substr(0, 4), config);
    }
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 8: greedy vs envelope at full replication.
    Grid grid = SweepGrid("fig08_sched_replication");
    for (const char* name :
         {"static-max-bandwidth", "dynamic-round-robin",
          "dynamic-max-requests", "dynamic-max-bandwidth",
          "dynamic-oldest-max-bandwidth", "envelope-oldest-max-requests",
          "envelope-max-requests", "envelope-max-bandwidth"}) {
      ExperimentConfig config = base;
      config.layout.num_replicas = 9;
      config.layout.start_position = 1.0;
      config.algorithm = Algo(name);
      AddLoadSweep(&grid, name, config);
    }
    w->timeline_grid = w->grids.size();
    w->timeline_point = grid.points.size() - 5;  // envelope-max-bandwidth q60
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 9: skew, NR-0 at SP-0 vs NR-9 at SP-1.
    Grid grid = SweepGrid("fig09_skew");
    for (const int rh : {20, 40, 60, 80}) {
      for (const int nr : {0, 9}) {
        ExperimentConfig config = base;
        config.algorithm = Algo("envelope-max-bandwidth");
        config.sim.workload.hot_request_fraction = rh / 100.0;
        config.layout.num_replicas = nr;
        config.layout.start_position = nr == 0 ? 0.0 : 1.0;
        AddLoadSweep(&grid,
                     "RH-" + std::to_string(rh) + "/NR-" + std::to_string(nr),
                     config);
      }
    }
    w->grids.push_back(std::move(grid));
  }
  {  // Figure 10(b) and the spare-capacity schemes: two RunGrid calls.
    ExperimentConfig envelope = base;
    envelope.algorithm = Algo("envelope-max-bandwidth");
    Grid grid = SweepGrid("fig10_cost_performance");
    for (const int rh : {20, 40, 60, 80}) {
      for (const int32_t nr : {0, 1, 2, 3, 5, 7, 9}) {
        ExperimentConfig config = envelope;
        config.sim.workload.hot_request_fraction = rh / 100.0;
        config.layout.num_replicas = nr;
        config.layout.start_position = nr == 0 ? 0.0 : 1.0;
        const double expansion =
            LayoutBuilder::ExpansionFactor(config.layout.hot_fraction, nr);
        config.sim.workload.queue_length = std::max<int64_t>(
            1, std::llround(60.0 / expansion));
        grid.points.push_back(MakePoint("RH-" + std::to_string(rh) + "/NR-" +
                                        std::to_string(nr),
                                    Engine::kSimulator, config));
      }
    }
    w->grids.push_back(std::move(grid));

    ExperimentConfig replicated = envelope;
    replicated.layout.layout = HotLayout::kVertical;
    replicated.layout.num_replicas = 9;
    replicated.layout.start_position = 1.0;
    replicated.sim.workload.queue_length = 60;
    ExperimentConfig spread = replicated;
    spread.layout.num_replicas = 0;
    spread.layout.start_position = 0.0;
    {
      const Jukebox probe(replicated.jukebox);
      spread.layout.logical_blocks_override =
          LayoutBuilder::MaxLogicalBlocks(probe, replicated.layout);
    }
    ExperimentConfig packed = spread;
    packed.layout.pack_cold = true;
    Grid spare = SweepGrid("fig10_cost_performance");
    spare.points = {MakePoint("spread", Engine::kSimulator, spread),
                    MakePoint("packed", Engine::kSimulator, packed),
                    MakePoint("replicated", Engine::kSimulator, replicated)};
    w->grids.push_back(std::move(spare));
  }
}

void AddExtensionGrids(const ExperimentConfig& base, Workload* w) {
  {  // ext_multi_drive: drives-major, queue-minor.
    Grid grid;
    grid.name = "ext_multi_drive";
    for (const int32_t drives : {1, 2, 3, 4}) {
      for (const int64_t queue : kQueues) {
        Point point = MakePoint(
            "drives-" + std::to_string(drives) + "/q" + std::to_string(queue),
            Engine::kMultiDrive, base);
        point.config.sim.workload.queue_length = queue;
        point.drives = drives;
        grid.points.push_back(std::move(point));
      }
    }
    w->grids.push_back(std::move(grid));
  }
  {  // ext_write_path: reads-only baseline, then gap x flush policy.
    struct Policy {
      const char* label;
      bool piggyback;
      int64_t min_blocks;
    };
    const Policy policies[] = {{"piggyback(8)+idle", true, 8},
                               {"piggyback(32)+idle", true, 32},
                               {"forced only", false, 8}};
    Grid grid;
    grid.name = "ext_write_path";
    for (const double gap : {0.0, 240.0, 120.0, 60.0}) {
      for (const Policy& policy : policies) {
        Point point = MakePoint(
            "gap-" + std::to_string(static_cast<int>(gap)) + "/" +
                (gap == 0.0 ? "reads only" : policy.label),
            Engine::kWriteback, base);
        point.config.sim.workload.queue_length = 60;
        point.writes.mean_write_interarrival_seconds = gap;
        point.writes.piggyback = policy.piggyback;
        point.writes.idle_flush = policy.piggyback;
        point.writes.piggyback_min_blocks = policy.min_blocks;
        grid.points.push_back(std::move(point));
        if (gap == 0.0) break;
      }
    }
    w->grids.push_back(std::move(grid));
  }
  {  // ext_lifecycle: spare capacity left empty vs filled gradually.
    Grid grid;
    grid.name = "ext_lifecycle";
    for (const bool fill : {false, true}) {
      Point point = MakePoint(fill ? "gradual-fill" : "baseline",
                              Engine::kLifecycle, base);
      ExperimentConfig& config = point.config;
      config.algorithm = Algo("envelope-max-bandwidth");
      config.sim.warmup_seconds = 0;
      config.sim.workload.queue_length = 60;
      tapejuke::LayoutSpec replicated;
      replicated.layout = HotLayout::kVertical;
      replicated.num_replicas = 9;
      replicated.start_position = 1.0;
      config.layout = tapejuke::LayoutSpec{};
      config.layout.layout = HotLayout::kVertical;
      const Jukebox probe(config.jukebox);
      config.layout.logical_blocks_override =
          LayoutBuilder::MaxLogicalBlocks(probe, replicated);
      point.lifecycle.fill_budget_seconds = fill ? 240.0 : 0.0;
      point.lifecycle.fill_on_idle = fill;
      point.lifecycle.num_epochs = 10;
      grid.points.push_back(std::move(point));
    }
    w->grids.push_back(std::move(grid));
  }
}

void MakeFigureSuite(bool small, Workload* w) {
  const ExperimentConfig base =
      PaperBase(w->seed, small ? kPaperSimSeconds / 100 : kPaperSimSeconds);
  AddFigureGrids(base, w);
  AddExtensionGrids(base, w);
}

void MakeDeepQueue(bool small, Workload* w) {
  // The Fig. 8 operating point. Each depth's simulated length is chosen so
  // the depths settle roughly the same number of requests (~1.5M each at
  // full size): throughput rises with depth (~2.5, ~12 and ~69 req/min),
  // so deeper queues run shorter.
  // The last point repeats the middle depth under the batched policy
  // (arrival_batch 256, reschedule_epoch 4, micro_sched's cached+batched
  // variant), the path the epoch counters measure. That path costs ~3x
  // more host time per simulated second here, so it runs shorter.
  struct Depth {
    int64_t queue;
    double sim_seconds;
    bool batched;
  };
  const Depth full[] = {{1'000, 36'000'000, false},
                        {10'000, 7'800'000, false},
                        {100'000, 1'300'000, false},
                        {10'000, 1'600'000, true}};
  const Depth reduced[] = {{100, 40'000, false},
                           {1'000, 24'000, false},
                           {10'000, 16'000, false},
                           {1'000, 24'000, true}};
  Grid grid = SweepGrid("deep_queue");
  for (const Depth& depth : small ? reduced : full) {
    ExperimentConfig config = PaperBase(w->seed, depth.sim_seconds);
    config.layout.num_replicas = 9;
    config.layout.start_position = 1.0;
    config.algorithm = Algo("envelope-max-bandwidth");
    config.sim.workload.queue_length = depth.queue;
    std::string label = "q" + std::to_string(depth.queue);
    if (depth.batched) {
      config.algorithm.options.arrival_batch = 256;
      config.algorithm.options.reschedule_epoch = 4;
      label += "-batched";
    }
    grid.points.push_back(
        MakePoint(std::move(label), Engine::kSimulator, config));
  }
  w->grids.push_back(std::move(grid));
}

void MakeFarmDegraded(bool small, Workload* w) {
  const int32_t boxes = small ? 8 : 64;
  ExperimentConfig box =
      PaperBase(w->seed, small ? kPaperSimSeconds / 10 : kPaperSimSeconds);
  // Open Poisson load at ~90 s per box (below the single-box knee).
  box.sim.workload.model = QueuingModel::kOpen;
  box.sim.workload.mean_interarrival_seconds = 90.0 / boxes;
  // The ext_overload three-class tenant mix, with queueing deadlines.
  constexpr double kProtectedSlo = 15000.0;
  tapejuke::TenantClassConfig premium;
  premium.weight = 0.1;
  premium.p99_slo_seconds = kProtectedSlo;
  premium.deadline_seconds = kProtectedSlo;
  tapejuke::TenantClassConfig standard;
  standard.weight = 0.3;
  standard.p99_slo_seconds = 3.0 * kProtectedSlo;
  standard.deadline_seconds = 2.0 * kProtectedSlo;
  tapejuke::TenantClassConfig besteffort;
  besteffort.weight = 0.6;
  box.sim.workload.tenant_classes = {premium, standard, besteffort};
  box.sim.admission.policy = tapejuke::AdmissionPolicy::kAdaptive;
  // Transient and permanent media errors; scrub + repair on NR-2 with
  // ~10% of the archive left free as spare capacity.
  box.sim.faults.transient_read_error_prob = 5e-3;
  box.sim.faults.permanent_media_error_prob = 2e-3;
  box.sim.repair.enable_repair = true;
  box.sim.repair.scrub_interval_seconds = 100'000;
  box.sim.repair.repair_bandwidth_mb_per_s = 20;
  box.layout.num_replicas = 2;
  {
    const Jukebox probe(box.jukebox);
    box.layout.logical_blocks_override =
        LayoutBuilder::MaxLogicalBlocks(probe, box.layout) * 9 / 10;
  }
  Point point = MakePoint("farm-" + std::to_string(boxes), Engine::kFarm, box);
  point.farm.num_jukeboxes = boxes;
  point.farm.drives_per_jukebox = 1;
  point.farm.threads = 2;
  point.farm.per_jukebox = box;
  Grid grid;
  grid.name = "farm_degraded";
  grid.points.push_back(std::move(point));
  w->grids.push_back(std::move(grid));
}

}  // namespace

size_t Workload::num_points() const {
  size_t n = 0;
  for (const Grid& grid : grids) n += grid.points.size();
  return n;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool small,
                  Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "figure_suite") {
    MakeFigureSuite(small, &w);
  } else if (name == "deep_queue") {
    MakeDeepQueue(small, &w);
  } else if (name == "farm_degraded") {
    MakeFarmDegraded(small, &w);
  } else {
    return false;
  }
  for (const Grid& grid : w.grids) {
    for (const Point& point : grid.points) {
      const tapejuke::Status status = point.engine == Engine::kFarm
                                          ? point.farm.Validate()
                                          : point.config.Validate();
      TJ_CHECK(status.ok()) << grid.name << " " << point.label << ": "
                            << status.ToString();
    }
  }
  *out = std::move(w);
  return true;
}

ExperimentConfig EffectiveConfig(const Point& point, size_t index) {
  ExperimentConfig config = point.config;
  config.sim.workload.seed = tapejuke::DerivePointSeed(
      point.config.sim.workload.seed, static_cast<uint64_t>(index));
  return config;
}

ExperimentConfig FarmBoxConfig(const tapejuke::FarmConfig& farm,
                               int32_t index) {
  ExperimentConfig config = farm.per_jukebox;
  tapejuke::WorkloadConfig& workload = config.sim.workload;
  const int64_t n = farm.num_jukeboxes;
  if (workload.model == QueuingModel::kClosed) {
    const int64_t base = workload.queue_length / n;
    const int64_t remainder = workload.queue_length % n;
    workload.queue_length = base + (index < remainder ? 1 : 0);
  } else {
    workload.mean_interarrival_seconds *= static_cast<double>(n);
  }
  workload.seed =
      tapejuke::DerivePointSeed(workload.seed, static_cast<uint64_t>(index));
  return config;
}

}  // namespace perfbench
