// Extension bench: helical-scan vs serpentine locate geometry.
//
// The paper's algorithms assume single-pass helical-scan tape; §2 notes
// they would need modification for serpentine drives. This bench shows why:
// it compares the locate-time structure of the two technologies over random
// position pairs and over sorted one-pass sweeps. On helical tape, locate
// cost grows with the logical distance, so a sorted sweep is near-optimal;
// on serpentine tape, logical distance is almost uncorrelated with cost
// (track-stacked positions are cheap), so sorted-order sweeps lose their
// advantage and position-aware scheduling must model track geometry.

#include <algorithm>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: helical vs serpentine locate geometry",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("abl_serpentine", options);
  const TimingModel helical{TimingParams::Exabyte8505XL()};
  const SerpentineModel serpentine{SerpentineParams{}};
  Rng rng(static_cast<uint64_t>(options.seed));
  const int64_t capacity = helical.params().tape_capacity_mb;

  // Random locates bucketed by logical distance.
  Table by_distance({"logical_distance_mb", "helical_mean_s",
                     "serpentine_mean_s"});
  by_distance.set_precision(1);
  for (const int64_t dist : {16, 64, 256, 1024, 4096}) {
    RunningStat h_stat;
    RunningStat s_stat;
    for (int i = 0; i < 2000; ++i) {
      const auto from = static_cast<Position>(
          rng.UniformUint64(static_cast<uint64_t>(capacity - dist)));
      const Position to = from + dist;
      h_stat.Add(helical.LocateTime(from, to));
      s_stat.Add(serpentine.LocateTime(from, to));
    }
    by_distance.AddRow({dist, h_stat.mean(), s_stat.mean()});
  }
  ctx.Emit("mean locate time by logical distance", &by_distance);

  // Sorted one-pass sweep vs arrival order vs a serpentine-aware
  // nearest-neighbor tour, over random request batches.
  Table sweeps({"batch", "helical_sorted_s", "helical_unsorted_s",
                "serp_sorted_s", "serp_unsorted_s", "serp_nn_s"});
  sweeps.set_precision(0);
  for (const int batch : {4, 8, 16, 32}) {
    double h_sorted = 0, h_unsorted = 0, s_sorted = 0, s_unsorted = 0,
           s_nn = 0;
    const int kTrials = 500;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<Position> positions;
      for (int i = 0; i < batch; ++i) {
        positions.push_back(static_cast<Position>(
            rng.UniformUint64(static_cast<uint64_t>(capacity - 16))));
      }
      std::vector<Position> sorted = positions;
      std::sort(sorted.begin(), sorted.end());
      auto helical_tour = [&](const std::vector<Position>& order) {
        double total = 0;
        Position head = 0;
        for (const Position p : order) {
          total += helical.LocateTime(head, p);
          head = p;  // ignore the read component: geometry only
        }
        return total;
      };
      h_sorted += helical_tour(sorted) / kTrials;
      h_unsorted += helical_tour(positions) / kTrials;
      s_sorted += serpentine.TourLocateSeconds(0, sorted) / kTrials;
      s_unsorted += serpentine.TourLocateSeconds(0, positions) / kTrials;
      s_nn += serpentine.TourLocateSeconds(
                  0, SerpentineNearestNeighborTour(serpentine, 0,
                                                   positions)) /
              kTrials;
    }
    sweeps.AddRow({static_cast<int64_t>(batch), h_sorted, h_unsorted,
                   s_sorted, s_unsorted, s_nn});
  }
  ctx.Emit(
      "sweep cost: sorted vs arrival order vs serpentine-aware "
      "nearest-neighbor (the modification the paper says serpentine "
      "drives need)",
      &sweeps);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
