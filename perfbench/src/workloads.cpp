#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "checks.h"
#include "experiment/registry.h"
#include "experiment/sinks.h"
#include "ledger.h"
#include "resultstore/incremental.h"
#include "resultstore/store.h"
#include "scenfile/scenfile.h"
#ifdef PERFBENCH_TRACED
#include "traced.h"
#endif

namespace perfbench {

namespace ex = stclock::experiment;

namespace {

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/// A span in the traced build, nothing in the untraced one.
class MaybeSpan {
 public:
  explicit MaybeSpan(ledger::Layer layer) {
    if constexpr (kTraced) ledger::enter(layer);
  }
  ~MaybeSpan() {
    if constexpr (kTraced) ledger::leave();
  }
  MaybeSpan(const MaybeSpan&) = delete;
  MaybeSpan& operator=(const MaybeSpan&) = delete;
};

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void replace_all(std::string& text, const std::string& from, const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos; at = text.find(from, at)) {
    text.replace(at, from.size(), to);
    at += to.size();
  }
}

struct Group {
  std::vector<ex::SweepCell> cells;
};

std::vector<Group> load(const WorkloadFiles& files) {
  const MaybeSpan span(ledger::kScenfile);
  std::vector<Group> groups;
  for (const auto& path : files.grids) groups.push_back({stclock::scenfile::load_grid_file(path).cells()});
  return groups;
}

/// One CSV block per scenario file (files have different axes).
std::string sinks(const std::vector<Group>& groups,
                  const std::vector<ex::ScenarioResult>& results) {
  const MaybeSpan span(ledger::kSinks);
  std::ostringstream os;
  std::size_t at = 0;
  for (const Group& g : groups) {
    const std::vector<ex::ScenarioResult> slice(results.begin() + static_cast<std::ptrdiff_t>(at),
                                                results.begin() + static_cast<std::ptrdiff_t>(at + g.cells.size()));
    ex::write_csv(os, g.cells, slice);
    at += g.cells.size();
  }
  return os.str();
}

CellRun describe(const ex::SweepCell& cell) {
  CellRun run;
  run.cell = cell;
  run.resolved = ex::resolved_spec(cell.spec);
  const ex::ProtocolRegistry::Entry* entry = ex::ProtocolRegistry::global().find(cell.spec.protocol);
  if (entry != nullptr) run.mode = entry->mode;
  return run;
}

/// Per-cell set-up inside run_cells_cached, which takes no factory from its
/// caller. Every registry entry is decorated once: its `prepare`, which
/// run_scenario calls first (through resolved_spec), marks the cell's start on
/// its thread, and each process construction adds the time since the last
/// mark, so a cell adds its start → last process construction.
namespace cell_setup {

thread_local double t_mark = 0;
thread_local bool t_armed = false;  // a prepare call has marked this thread
std::atomic<std::uint64_t> g_ns{0};
std::atomic<std::uint64_t> g_unmarked{0};  // cells whose start went unmarked

void install() {
  static std::once_flag once;
  std::call_once(once, [] {
    ex::ProtocolRegistry& registry = ex::ProtocolRegistry::global();
    for (const std::string& name : registry.names()) {
      // The registry hands out const entries. It is not itself const, and it
      // may be changed at start-up, before any sweep thread runs.
      auto& entry = const_cast<ex::ProtocolRegistry::Entry&>(registry.at(name));
      entry.prepare = [inner = entry.prepare](ex::ScenarioSpec& spec) {
        t_mark = now_s();
        t_armed = true;
        if (inner) inner(spec);
      };
      entry.factory = [inner = entry.factory](const ex::ScenarioSpec& spec, stclock::NodeId id,
                                              bool joining) {
        std::unique_ptr<stclock::Process> process = inner(spec, id, joining);
        const double t = now_s();
        if (id == 0 && !t_armed) ++g_unmarked;
        if (t_armed) g_ns += static_cast<std::uint64_t>((t - t_mark) * 1e9);
        t_mark = t;
        return process;
      };
    }
  });
}

}  // namespace cell_setup

/// The simulation workloads: each cell through run_scenario_with with the
/// registry entry's factory, as run_scenario does, so the last process
/// construction marks the end of the cell's set-up.
Round simulation_round(const WorkloadFiles& files, double setup_origin, unsigned sim_threads) {
  Round round;
  const double round_start = now_s();
  const std::vector<Group> groups = load(files);
  std::vector<ex::ScenarioResult> results;
  for (const Group& group : groups) {
    for (const ex::SweepCell& cell : group.cells) {
      CellRun run = describe(cell);
      if (sim_threads > 0) run.resolved.sim_threads = sim_threads;
      const double cell_start = now_s();
      double setup_end = cell_start;
      try {
        const ex::ProtocolRegistry::Entry& entry = ex::ProtocolRegistry::global().at(cell.spec.protocol);
#ifdef PERFBENCH_TRACED
        const ex::ProcessFactory inner = traced::factory(cell.spec.protocol, entry);
#else
        const ex::ProcessFactory& inner = entry.factory;
#endif
        const ex::ProcessFactory timed = [&](const ex::ScenarioSpec& spec, stclock::NodeId id,
                                             bool joining) {
          const MaybeSpan span(ledger::kSetupProcesses);
          std::unique_ptr<stclock::Process> process = inner(spec, id, joining);
          setup_end = now_s();
          return process;
        };
        run.result = ex::run_scenario_with(run.resolved, entry.mode, timed);
        run.result.protocol = cell.spec.protocol;
      } catch (const std::exception& e) {
        run.error = e.what();
        ++round.failed_cells;
      }
      const double cell_end = now_s();
      const double origin = setup_origin >= 0 && round.computed.empty() ? setup_origin : cell_start;
      round.setup_s += setup_end - origin;
      round.sim_s += cell_end - setup_end;
      round.events += run.result.events_dispatched;
      results.push_back(run.result);
      round.computed.push_back(std::move(run));
    }
  }
  round.cells_served = round.computed.size();
  round.sink = sinks(groups, results);
  round.wall_s = now_s() - round_start;
  return round;
}

/// The sweep workload: every cell through run_cells_cached, first cold into
/// an empty store, then warm, each pass followed by its sinks.
Round sweep_round(const WorkloadFiles& files, const std::filesystem::path& store_dir,
                  unsigned threads, double setup_origin) {
  cell_setup::install();
  Round round;
  const double round_start = now_s();
  const std::vector<Group> groups = load(files);
  std::vector<ex::SweepCell> cells;
  for (const Group& g : groups) cells.insert(cells.end(), g.cells.begin(), g.cells.end());
  std::filesystem::remove_all(store_dir);
  const stclock::resultstore::ResultStore store(store_dir);
  if (setup_origin >= 0) round.setup_s = now_s() - setup_origin;

  stclock::resultstore::CacheStats cold_stats;
  stclock::resultstore::CacheStats warm_stats;
  std::vector<ex::ScenarioResult> cold;
  std::vector<ex::ScenarioResult> warm;
  std::string cold_sink;
  std::string warm_sink;
  try {
    const std::uint64_t setup_ns = cell_setup::g_ns;
    const double cold_start = now_s();
    cold = stclock::resultstore::run_cells_cached(cells, &store, threads, true, &cold_stats);
    round.sim_s = now_s() - cold_start;
    round.setup_s += static_cast<double>(cell_setup::g_ns - setup_ns) * 1e-9;
    if (cell_setup::g_unmarked != 0) {
      round.failures.push_back("per-cell set-up not timed: run_scenario no longer calls prepare first");
    }
    cold_sink = sinks(groups, cold);
    const double warm_start = now_s();
    warm = stclock::resultstore::run_cells_cached(cells, &store, threads, true, &warm_stats);
    round.warm_s = now_s() - warm_start;
    warm_sink = sinks(groups, warm);
  } catch (const std::exception& e) {
    round.failures.push_back(std::string("sweep threw: ") + e.what());
    round.failed_cells = 2 * cells.size();
  }
  round.wall_s = now_s() - round_start;
  round.store_bytes = store.stats().bytes;

  round.cells_served = 2 * cells.size();
  for (std::size_t i = 0; i < cells.size() && i < cold.size(); ++i) {
    CellRun run = describe(cells[i]);
    run.result = cold[i];
    round.events += run.result.events_dispatched;
    round.computed.push_back(std::move(run));
  }
  checks::CachePasses passes;
  passes.cells = cells.size();
  passes.cold_hits = cold_stats.hits;
  passes.cold_misses = cold_stats.misses;
  passes.warm_hits = warm_stats.hits;
  passes.warm_misses = warm_stats.misses;
  passes.cold_sink = cold_sink;
  passes.warm_sink = warm_sink;
  for (std::string& f : checks::check_cache(passes)) round.failures.push_back(std::move(f));
  round.sink = std::move(cold_sink);
  std::filesystem::remove_all(store_dir);
  return round;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

WorkloadFiles instantiate(const std::string& workload, const std::filesystem::path& templates,
                          const std::filesystem::path& dir, std::uint64_t seed) {
  WorkloadFiles files;
  files.name = workload;
  std::vector<std::filesystem::path> sources;
  for (const auto& entry : std::filesystem::directory_iterator(templates)) {
    const std::string stem = entry.path().filename().string();
    if (stem == workload + ".json" || stem.rfind(workload + ".", 0) == 0) sources.push_back(entry.path());
  }
  if (sources.empty()) throw std::invalid_argument("unknown workload: " + workload);
  std::sort(sources.begin(), sources.end());
  std::filesystem::create_directories(dir);
  // Scenario seeds derive per cell from the base seed (reseed_per_cell);
  // topology seeds from the benchmark's own mix of it, so the inputs do not
  // depend on the program under test, kept below 2^48 so JSON carries them
  // exactly.
  const std::uint64_t topology_seed = splitmix(seed ^ 0x70b0ULL) & ((1ULL << 48) - 1);
  for (const auto& source : sources) {
    std::ifstream in(source);
    std::stringstream text;
    text << in.rdbuf();
    std::string grid = text.str();
    replace_all(grid, "\"@SEED@\"", std::to_string(seed));
    replace_all(grid, "\"@TOPOLOGY_SEED@\"", std::to_string(topology_seed));
    const std::filesystem::path out = dir / source.filename();
    std::ofstream(out) << grid;
    files.grids.push_back(out);
  }
  return files;
}

Round run_round(const WorkloadFiles& files, const std::filesystem::path& store_dir,
                unsigned threads, double setup_origin, unsigned sim_threads) {
  if (files.name == "sweep-cached") return sweep_round(files, store_dir, threads, setup_origin);
  return simulation_round(files, setup_origin, sim_threads);
}

}  // namespace perfbench
