// Figure 3: the effect of the I/O transfer size.
//
// PH-10 RH-40 NR-0 SP-0, dynamic max-bandwidth; average throughput (KB/s)
// as a function of the block size for queue lengths 20, 60, 100, 140. The
// paper's answer (Q1): use at least 16 MB — halving 16 MB to 8 MB costs
// nearly a factor of two.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Figure 3: throughput vs transfer size",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig03_transfer_size", options);
  ExperimentConfig base = PaperBaseConfig(options);
  std::cout << "Figure 3 | " << ParamCaption(base)
            << " | dynamic max-bandwidth\n";

  const int64_t block_sizes[] = {1, 2, 4, 8, 16, 32, 64};
  const int64_t queues[] = {20, 60, 100, 140};

  std::vector<GridPoint> grid;
  for (const int64_t block : block_sizes) {
    for (const int64_t queue : queues) {
      ExperimentConfig config = base;
      config.jukebox.block_size_mb = block;
      config.sim.workload.queue_length = queue;
      if (options.Model() == QueuingModel::kOpen) {
        // Keep the byte demand comparable across block sizes.
        config.sim.workload.mean_interarrival_seconds =
            static_cast<double>(block) * 60.0 / 16.0;
      }
      grid.push_back(GridPoint{"block-" + std::to_string(block) + "MB",
                               static_cast<double>(queue), config});
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"block_mb", "q20_kb_s", "q60_kb_s", "q100_kb_s",
               "q140_kb_s"});
  table.set_precision(1);
  // One column per queue length, in the grid's order.
  static_assert(std::size(queues) == 4);
  size_t point = 0;
  for (const int64_t block : block_sizes) {
    const auto kb_s = [&](size_t q) {
      return results[point + q].sim.throughput_kb_per_s;
    };
    table.AddRow({block, kb_s(0), kb_s(1), kb_s(2), kb_s(3)});
    point += std::size(queues);
  }
  ctx.Emit("throughput (KB/s) vs transfer size", &table);

  std::cout << "\nPaper claim (Q1): >= 16 MB reaches > 30% of the drive's "
            << "streaming rate ("
            << TimingModel{TimingParams::Exabyte8505XL()}.StreamingRateMBps() *
                   1024
            << " KB/s); 8 MB costs ~2x vs 16 MB.\n";
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
