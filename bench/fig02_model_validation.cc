// §2.1 model validation: ten random walks of 100 locates + reads comparing
// model predictions against the (simulated) physical drive. The paper
// reports locate error max 0.6% / mean 0.5% and read error max 4.6% /
// mean 2.6%.

#include <algorithm>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Section 2.1: timing-model validation random walks",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig02_model_validation", options);
  const TimingModel model{TimingParams::Exabyte8505XL()};
  PhysicalDrive drive(&model, DriveNoiseParams{},
                      static_cast<uint64_t>(options.seed));

  Table table({"walk", "locate_pred_s", "locate_meas_s", "locate_err_pct",
               "read_pred_s", "read_meas_s", "read_err_pct"});
  table.set_precision(2);
  double max_locate = 0, mean_locate = 0, max_read = 0, mean_read = 0;
  const int kWalks = 10;
  for (int i = 0; i < kWalks; ++i) {
    const RandomWalkResult walk = drive.RandomWalk(/*steps=*/100,
                                                   /*read_mb=*/1);
    table.AddRow({static_cast<int64_t>(i + 1),
                  walk.predicted_locate_seconds,
                  walk.measured_locate_seconds, walk.LocateErrorPct(),
                  walk.predicted_read_seconds, walk.measured_read_seconds,
                  walk.ReadErrorPct()});
    max_locate = std::max(max_locate, walk.LocateErrorPct());
    mean_locate += walk.LocateErrorPct() / kWalks;
    max_read = std::max(max_read, walk.ReadErrorPct());
    mean_read += walk.ReadErrorPct() / kWalks;
  }
  ctx.Emit("ten 100-step random walks (1 MB reads)", &table);

  Table summary({"metric", "max_err_pct", "mean_err_pct", "paper_max",
                 "paper_mean"});
  summary.set_precision(2);
  summary.AddRow({std::string("locate"), max_locate, mean_locate, 0.6, 0.5});
  summary.AddRow({std::string("read"), max_read, mean_read, 4.6, 2.6});
  ctx.Emit("error summary vs paper", &summary);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
