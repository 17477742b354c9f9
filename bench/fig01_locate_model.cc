// Figure 1: locate time as a function of distance (1 MB logical blocks).
//
// The paper plots measured locate times on an Exabyte EXB-8505XL along with
// the four-regime least-squares fit. This bench regenerates the figure from
// the analytic model: forward and reverse locate times over the full
// distance range, the regime breakpoints, and (for flavor) noisy "measured"
// samples from the PhysicalDrive substitute.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Figure 1: locate time vs distance (model + noisy "
                     "samples)",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig01_locate_model", options);
  const TimingModel model{TimingParams::Exabyte8505XL()};
  PhysicalDrive drive(&model, DriveNoiseParams{},
                      static_cast<uint64_t>(options.seed));

  std::cout << "Figure 1 | Exabyte EXB-8505XL locate model, 1 MB blocks\n";
  Table table({"distance_mb", "fwd_model_s", "fwd_measured_s", "rev_model_s",
               "rev_measured_s"});
  table.set_precision(2);
  const int64_t distances[] = {1,   2,   4,    8,    16,   28,  29,
                               32,  64,  128,  256,  512,  1024,
                               2048, 4096, 7168};
  for (const int64_t k : distances) {
    table.AddRow({static_cast<int64_t>(k), model.ForwardLocateTime(k),
                  drive.MeasureLocate(0, k), model.ReverseLocateTime(k),
                  drive.MeasureLocate(k, 0) - model.params().bot_extra_seconds});
  }
  ctx.Emit("locate time vs distance", &table);

  Table fits({"regime", "startup_s", "per_mb_s", "range"});
  const TimingParams& p = model.params();
  fits.AddRow({std::string("forward short"), p.fwd_short_startup,
               p.fwd_short_per_mb, std::string("k <= 28")});
  fits.AddRow({std::string("forward long"), p.fwd_long_startup,
               p.fwd_long_per_mb, std::string("k > 28")});
  fits.AddRow({std::string("reverse short"), p.rev_short_startup,
               p.rev_short_per_mb, std::string("k <= 28")});
  fits.AddRow({std::string("reverse long"), p.rev_long_startup,
               p.rev_long_per_mb, std::string("k > 28")});
  ctx.Emit("fitted regimes (paper constants)", &fits);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
