// The benchmark program: runs whole rounds of one workload for a given number
// of seconds, checks every result, and prints one JSON line of metrics.
//
//   perfbench --workload NAME --seed N --seconds S --templates DIR --scratch DIR
//             [--parallel-engine]
//
// The untraced build prints the end-to-end metrics; the traced build (linked
// with the wrappers in wraps.cpp) prints the per-layer ledger. run.py builds
// both and is the command to use.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "ledger.h"
#include "workloads.h"

namespace {

using perfbench::Round;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string templates;
  std::string scratch;
  bool parallel_engine = false;  ///< the one-off comparison: sim_threads = nproc
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--parallel-engine") {
      a.parallel_engine = true;
      continue;
    }
    if (i + 1 == argc) throw std::invalid_argument("option " + key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--templates") a.templates = value;
    else if (key == "--scratch") a.scratch = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (a.workload.empty() || a.templates.empty() || a.scratch.empty()) {
    throw std::invalid_argument("need --workload, --templates and --scratch");
  }
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Metric {
  double value;
  const char* unit;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  // The cold set-up of a run is timed from here.
  const double process_start = perfbench::now_s();
  (void)perfbench::ledger::seconds_per_tick();  // starts the tick calibration
  try {
    const Args args = parse(argc, argv);
    // The sweep's worker pool: two workers where there are two cores, so
    // hosts of different sizes run comparable sweeps. On a shared 4-vCPU
    // host, four workers spread twice as widely between runs: a sweep waits
    // for its slowest worker, and every busy core must then be uncontended.
    const unsigned threads = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    const std::filesystem::path scratch = args.scratch;
    const perfbench::WorkloadFiles files =
        perfbench::instantiate(args.workload, args.templates, scratch / "grids", args.seed);
    // The engine accepts 1..64 threads.
    const unsigned sim_threads =
        args.parallel_engine ? std::clamp(std::thread::hardware_concurrency(), 1u, 64u) : 0u;

    // Per-round figures; a round's cells and results are dropped once checked.
    std::vector<double> wall, events_rate, cells_rate, warm;
    double first_setup_s = 0;
    std::string first_sink;
    std::vector<std::string> failures;       // break `correct`
    std::vector<std::string> cell_failures;  // counted in `failed`
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::map<std::size_t, std::uint32_t> hops;  // by cell index; every round runs the same cells
    perfbench::checks::PathTotals paths;
    std::uint64_t store_bytes = 0;
#ifdef PERFBENCH_TRACED
    perfbench::ledger::request_rss_sample();  // taken at the first simulated event
#endif
    double first_round_rss_mb = 0;
    const double start = perfbench::now_s();
    do {
      const bool first = wall.empty();
      const Round r = perfbench::run_round(files, scratch / "store", threads,
                                           first ? process_start : -1.0, sim_threads);
      // One pass of the workload is what a user runs; later rounds repeat it.
      if (first) first_round_rss_mb = peak_rss_mb();
      // Checks run between rounds, outside every timed region.
      attempted += r.cells_served;
      failed += r.failed_cells;
      for (const std::string& f : r.failures) failures.push_back(f);
      const std::size_t per_pass = r.cells_served / std::max<std::size_t>(1, r.computed.size());
      for (std::size_t i = 0; i < r.computed.size(); ++i) {
        const perfbench::CellRun& c = r.computed[i];
        if (!c.error.empty()) {
          cell_failures.push_back(c.cell.spec.protocol + ": " + c.error);
          continue;
        }
        std::uint32_t& h = hops[i];
        if (h == 0) h = perfbench::checks::relay_hops(c.resolved);
        const std::vector<std::string> broken =
            perfbench::checks::check_cell(c.resolved, c.mode, c.result, h);
        if (!broken.empty()) failed += per_pass;  // the warm pass replays the same result
        for (const std::string& f : broken) cell_failures.push_back(f);
        paths.events_dispatched += c.result.events_dispatched;
        paths.messages_delivered += c.result.messages_sent - c.result.messages_dropped;
      }
      if (first) {
        first_setup_s = r.setup_s;
        first_sink = r.sink;
      } else if (r.sink != first_sink) {
        failures.push_back("round " + std::to_string(wall.size() + 1) +
                           " results differ from the first round's (same inputs)");
      }
      std::cerr << "perfbench: round " << wall.size() + 1 << " wall " << r.wall_s << " s, "
                << r.events << " events\n";
      store_bytes += r.store_bytes;
      wall.push_back(r.wall_s);
      events_rate.push_back(r.sim_s > 0 ? static_cast<double>(r.events) / r.sim_s : 0);
      cells_rate.push_back(static_cast<double>(r.cells_served) / r.wall_s);
      warm.push_back(r.warm_s);
    } while (perfbench::now_s() - start < args.seconds);

    std::vector<std::pair<std::string, Metric>> metrics = {
        {"wall_s", {median(wall), "s"}},
        {"setup_s", {first_setup_s, "s"}},
        {"events_per_s", {median(events_rate), "events/s"}},
        {"peak_rss_mb", {first_round_rss_mb, "MB"}},
        {"cells_per_s", {median(cells_rate), "cells/s"}},
    };

#ifdef PERFBENCH_TRACED
    namespace lg = perfbench::ledger;
    const double rounds_n = static_cast<double>(wall.size());
    const lg::Totals t = lg::totals();
    const double spt = lg::seconds_per_tick();
    const auto self = [&](lg::Layer l) { return static_cast<double>(t.self[l]) * spt / rounds_n; };
    const auto total = [&](lg::Layer l) { return static_cast<double>(t.total[l]) * spt / rounds_n; };
    const auto cnt = [&](lg::Count c) { return static_cast<double>(t.counts[c]) / rounds_n; };
    const auto ratio = [&](lg::Count a, lg::Count b) {
      return t.counts[b] == 0 ? 0.0 : static_cast<double>(t.counts[a]) / static_cast<double>(t.counts[b]);
    };
    const double slots = static_cast<double>(t.counts[lg::kSweepWorkerSlots]) * spt / rounds_n;
    const std::vector<std::pair<std::string, Metric>> layers = {
        {"sim.queue.pushes", {cnt(lg::kPushes), "count"}},
        {"sim.queue.pops", {cnt(lg::kPops), "count"}},
        {"sim.queue.self_s", {self(lg::kQueue), "s"}},
        {"sim.fanout.self_s", {self(lg::kFanout), "s"}},
        {"sim.dispatch.self_s", {self(lg::kRunLoop), "s"}},
        {"crypto.signs", {cnt(lg::kSigns), "count"}},
        {"crypto.verifies", {cnt(lg::kVerifies), "count"}},
        {"crypto.self_s", {self(lg::kCrypto), "s"}},
        {"crypto.verifies_per_delivery", {ratio(lg::kVerifies, lg::kDeliveryPops), "ratio"}},
        {"broadcast.messages", {cnt(lg::kPrimitiveMessages), "count"}},
        {"broadcast.accepts", {cnt(lg::kAccepts), "count"}},
        {"broadcast.self_s", {self(lg::kBroadcast), "s"}},
        {"broadcast.accepts_per_message", {ratio(lg::kAccepts, lg::kPrimitiveMessages), "ratio"}},
        {"core.handler.self_s", {self(lg::kCore), "s"}},
        {"core.pulses", {cnt(lg::kPulses), "count"}},
        {"clocks.reads", {cnt(lg::kClockReads), "count"}},
        {"clocks.reads_per_event", {ratio(lg::kClockReads, lg::kPops), "ratio"}},
        {"trace.samples", {cnt(lg::kSamples), "count"}},
        {"trace.self_s", {self(lg::kTrace), "s"}},
        {"trace.clock_reads_per_sample", {ratio(lg::kTraceClockReads, lg::kSamples), "ratio"}},
        {"adversary.sends", {cnt(lg::kAdversarySends), "count"}},
        {"adversary.self_s", {self(lg::kAdversary), "s"}},
        {"setup.topology_s", {total(lg::kSetupTopology), "s"}},
        {"setup.clocks_s", {total(lg::kSetupClocks), "s"}},
        {"setup.keys_s", {total(lg::kSetupKeys), "s"}},
        {"setup.processes_s", {total(lg::kSetupProcesses), "s"}},
        {"experiment.sweep.busy_s", {total(lg::kCell), "s"}},
        {"experiment.sweep.idle_s", {std::max(0.0, slots - total(lg::kCell)), "s"}},
        {"experiment.sinks_s", {total(lg::kSinks), "s"}},
        {"resultstore.key_s", {total(lg::kResultKey), "s"}},
        {"resultstore.publish_s", {total(lg::kResultPublish), "s"}},
        {"resultstore.lookup_s", {total(lg::kResultLookup), "s"}},
        {"resultstore.hits", {cnt(lg::kStoreHits), "count"}},
        {"resultstore.misses", {cnt(lg::kStoreMisses), "count"}},
        {"resultstore.bytes_written", {cnt(lg::kStoreBytesWritten), "bytes"}},
        {"resultstore.warm_replay_s", {median(warm), "s"}},
        {"scenfile.load_s", {total(lg::kScenfile), "s"}},
        {"mem.topology_bytes", {static_cast<double>(lg::max_observed()), "bytes"}},
        {"mem.rss_after_setup_mb", {lg::rss_after_setup_mb(), "MB"}},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    paths.counted_pops = t.counts[lg::kPops];
    paths.counted_delivery_pushes = t.counts[lg::kDeliveryPushes];
    for (const std::string& f : perfbench::checks::check_paths(paths)) failures.push_back(f);
    if (t.counts[lg::kStoreBytesWritten] != store_bytes) {
      failures.push_back("counted store bytes " + std::to_string(t.counts[lg::kStoreBytesWritten]) +
                         " != ResultStore::stats bytes " + std::to_string(store_bytes));
    }
#else
    (void)paths;
    (void)store_bytes;
#endif
    std::filesystem::remove_all(scratch);

    for (const std::string& f : cell_failures) std::cerr << "perfbench: failed cell: " << f << "\n";
    for (const std::string& f : failures) std::cerr << "perfbench: " << f << "\n";
    // A failed cell is counted in `failed`; `correct` covers everything else.
    const bool correct = failures.empty();
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"rounds\": " << wall.size()
        << ", \"sim_threads\": " << std::max(1u, sim_threads)
        << ", \"digest\": " << json_string(std::to_string(fnv1a(first_sink)))
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << json_string(metrics[i].first) << ": {\"value\": "
          << metrics[i].second.value << ", \"unit\": " << json_string(metrics[i].second.unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
