// Umbrella header: the full public API of the tapejuke library.
//
// tapejuke is a from-scratch reproduction of "Scheduling and Data
// Replication to Improve Tape Jukebox Performance" (Hillyer, Rastogi,
// Silberschatz; ICDE 1999): a measured tape timing model, a jukebox
// hardware model (one drive, or the multi-drive extension), hot/cold data
// placement and replication layouts, the full family of scheduling
// algorithms (FIFO, static and dynamic greedy variants, and the
// envelope-extension algorithm), and a discrete-event simulator with
// closed- and open-queuing workloads. See README.md for a
// quickstart and DESIGN.md for the architecture.

#ifndef TAPEJUKE_CORE_TAPEJUKE_H_
#define TAPEJUKE_CORE_TAPEJUKE_H_

#include "core/analytic.h"           // IWYU pragma: export
#include "core/cost_performance.h"   // IWYU pragma: export
#include "core/experiment.h"         // IWYU pragma: export
#include "core/farm.h"               // IWYU pragma: export
#include "layout/catalog.h"          // IWYU pragma: export
#include "layout/placement.h"        // IWYU pragma: export
#include "sched/envelope_scheduler.h"  // IWYU pragma: export
#include "sched/fifo_scheduler.h"    // IWYU pragma: export
#include "sched/greedy_scheduler.h"  // IWYU pragma: export
#include "sched/schedule_cost.h"     // IWYU pragma: export
#include "sched/scheduler.h"         // IWYU pragma: export
#include "sched/theory.h"            // IWYU pragma: export
#include "sched/validating_scheduler.h"  // IWYU pragma: export
#include "sim/lifecycle.h"           // IWYU pragma: export
#include "sim/metrics.h"             // IWYU pragma: export
#include "sim/simulator.h"           // IWYU pragma: export
#include "sim/trace.h"               // IWYU pragma: export
#include "sim/workload.h"            // IWYU pragma: export
#include "sim/write_path.h"          // IWYU pragma: export
#include "tape/jukebox.h"            // IWYU pragma: export
#include "tape/physical_drive.h"     // IWYU pragma: export
#include "tape/serpentine.h"         // IWYU pragma: export
#include "tape/timing_model.h"       // IWYU pragma: export
#include "util/fields.h"             // IWYU pragma: export
#include "util/flags.h"              // IWYU pragma: export
#include "util/rng.h"                // IWYU pragma: export
#include "util/stats.h"              // IWYU pragma: export
#include "util/status.h"             // IWYU pragma: export
#include "util/table.h"              // IWYU pragma: export

#endif  // TAPEJUKE_CORE_TAPEJUKE_H_
