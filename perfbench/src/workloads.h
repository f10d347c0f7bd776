#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment/scenario.h"
#include "experiment/sweep.h"

/// One round of a workload: every cell of its scenario files, run through
/// the program's public entry points the way scenrun runs them.
namespace perfbench {

/// Seconds on the steady clock (CLOCK_MONOTONIC on Linux).
[[nodiscard]] double now_s();

struct CellRun {
  stclock::experiment::SweepCell cell;
  stclock::experiment::ScenarioSpec resolved;  ///< as the engine ran it
  stclock::experiment::EngineMode mode = stclock::experiment::EngineMode::kBaseline;
  stclock::experiment::ScenarioResult result;
  std::string error;  ///< what the run threw, if it did
};

struct Round {
  double wall_s = 0;   ///< the whole round, scenario loading included
  double setup_s = 0;  ///< set-up before the first simulated event (see README)
  double sim_s = 0;    ///< host time spent simulating after set-up
  double warm_s = 0;   ///< sweep only: the warm pass
  std::uint64_t events = 0;
  std::size_t cells_served = 0;
  std::vector<CellRun> computed;  ///< every computed cell (sweep: cold pass)
  std::vector<std::string> failures;  ///< round-level failures (cache, sinks)
  std::size_t failed_cells = 0;       ///< cells whose run threw
  std::string sink;                   ///< CSV bytes of the round's results
  std::uint64_t store_bytes = 0;      ///< sweep only: store size after the cold pass
};

struct WorkloadFiles {
  std::string name;
  std::vector<std::filesystem::path> grids;  ///< instantiated scenario files
};

/// Writes the workload's scenario files into `dir` with the seeds derived
/// from `seed`. Throws if the workload is unknown.
[[nodiscard]] WorkloadFiles instantiate(const std::string& workload,
                                        const std::filesystem::path& templates,
                                        const std::filesystem::path& dir, std::uint64_t seed);

/// Runs one round. `setup_origin` is the process start for the first round
/// (its set-up is then timed from there), or a negative value. A non-zero
/// `sim_threads` runs the simulation workloads' cells on the parallel engine
/// at that many threads (the one-off engine comparison only; the workloads
/// themselves set no execution knob).
[[nodiscard]] Round run_round(const WorkloadFiles& files, const std::filesystem::path& store_dir,
                              unsigned threads, double setup_origin, unsigned sim_threads = 0);

}  // namespace perfbench
