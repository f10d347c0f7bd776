#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.h"

/// The benchmark's checker. It holds every cell to bounds it derives itself
/// from the cell's parameters (it never calls the program's derive_bounds),
/// and compares totals that two independent paths produce.
namespace perfbench::checks {

/// Srikanth–Toueg bounds, derived as in the paper's analysis (the same
/// derivation core/theory.cpp documents), for an acceptance that may need
/// `hops` relay hops: 1 at full fan-in, the graph's hop distance on a sparse
/// fabric, where the acceptance spread D grows to hops * D.
struct SyncBounds {
  double D = 0;  ///< acceptance spread of one hop: tdel (auth) or 2 tdel (echo)
  double D_eff = 0;
  double alpha = 0;
  double gamma = 0;
  double dmax = 0;  ///< precision bound
  double min_period = 0;
  double max_period = 0;
  double rate_lo = 0;
  double rate_hi = 0;
};
[[nodiscard]] SyncBounds sync_bounds(const stclock::SyncConfig& cfg, std::uint32_t hops);

/// Relay hops an acceptance may need: 1 at full fan-in, else the graph's
/// diameter (up to 4096 nodes) or twice the eccentricity of node 0 (an upper
/// bound on the diameter that costs one breadth-first search).
[[nodiscard]] std::uint32_t relay_hops(const stclock::experiment::ScenarioSpec& spec);

/// Every property `result` breaks, one line each; empty when it passes.
/// `spec` is the spec as the engine ran it (registry prepare hook applied).
[[nodiscard]] std::vector<std::string> check_cell(const stclock::experiment::ScenarioSpec& spec,
                                                  stclock::experiment::EngineMode mode,
                                                  const stclock::experiment::ScenarioResult& result,
                                                  std::uint32_t hops);

/// Two-path totals of a traced run: queue pops against the program's
/// events_dispatched, and delivery pushes against messages_sent minus
/// messages_dropped, both summed over every cell the run computed.
struct PathTotals {
  std::uint64_t counted_pops = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t counted_delivery_pushes = 0;
  std::uint64_t messages_delivered = 0;  ///< messages_sent - messages_dropped
};
[[nodiscard]] std::vector<std::string> check_paths(const PathTotals& totals);

/// A cold sweep into an empty store followed by a warm one over the same
/// cells: the warm pass must be all hits, and both passes must produce the
/// same sink bytes.
struct CachePasses {
  std::size_t cells = 0;
  std::size_t cold_hits = 0;
  std::size_t cold_misses = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_misses = 0;
  std::string cold_sink;
  std::string warm_sink;
};
[[nodiscard]] std::vector<std::string> check_cache(const CachePasses& passes);

}  // namespace perfbench::checks
