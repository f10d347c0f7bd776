#include "ledger.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench::ledger {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Frame {
  Layer layer = kLayerCount;
  std::uint64_t start = 0;
  std::uint64_t children = 0;
};

std::mutex g_mutex;
Totals g_retired;  // folded in by threads that finished
std::atomic<std::uint64_t> g_max{0};
std::atomic<bool> g_rss_wanted{false};
std::atomic<double> g_rss_mb{0};

struct ThreadLedger;
std::vector<ThreadLedger*> g_live;

struct ThreadLedger {
  Totals totals;
  Frame stack[64];
  int depth = 0;

  ThreadLedger() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_live.push_back(this);
  }
  ~ThreadLedger() {
    const std::lock_guard<std::mutex> lock(g_mutex);
    for (int i = 0; i < kLayerCount; ++i) {
      g_retired.self[i] += totals.self[i];
      g_retired.total[i] += totals.total[i];
    }
    for (int i = 0; i < kCountCount; ++i) g_retired.counts[i] += totals.counts[i];
    std::erase(g_live, this);
  }
  ThreadLedger(const ThreadLedger&) = delete;
  ThreadLedger& operator=(const ThreadLedger&) = delete;
};

ThreadLedger& local() {
  thread_local ThreadLedger ledger;
  return ledger;
}

struct Calibration {
  std::uint64_t tick0 = ticks();
  std::uint64_t ns0 = steady_ns();
};

Calibration& calibration() {
  static Calibration c;
  return c;
}

}  // namespace

std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return steady_ns();
#endif
}

double seconds_per_tick() {
  const Calibration& c = calibration();
  const std::uint64_t dt = ticks() - c.tick0;
  const std::uint64_t dns = steady_ns() - c.ns0;
  return dt == 0 ? 1e-9 : static_cast<double>(dns) * 1e-9 / static_cast<double>(dt);
}

void enter(Layer layer) {
  ThreadLedger& l = local();
  if (l.depth == 64) throw std::logic_error("perfbench: span stack overflow");
  l.stack[l.depth++] = Frame{layer, ticks(), 0};
}

void leave() {
  const std::uint64_t now = ticks();
  ThreadLedger& l = local();
  const Frame& f = l.stack[--l.depth];
  const std::uint64_t duration = now - f.start;
  l.totals.total[f.layer] += duration;
  l.totals.self[f.layer] += duration - f.children;
  if (l.depth > 0) l.stack[l.depth - 1].children += duration;
}

Layer current() {
  const ThreadLedger& l = local();
  return l.depth > 0 ? l.stack[l.depth - 1].layer : kLayerCount;
}

void count(Count c, std::uint64_t k) { local().totals.counts[c] += k; }

void observe_max(std::uint64_t value) {
  std::uint64_t seen = g_max.load(std::memory_order_relaxed);
  while (value > seen && !g_max.compare_exchange_weak(seen, value)) {
  }
}

std::uint64_t max_observed() { return g_max.load(); }

void request_rss_sample() { g_rss_wanted = true; }

void take_rss_sample() {
  if (!g_rss_wanted.exchange(false)) return;
  long pages = 0;
  long resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  g_rss_mb = static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double rss_after_setup_mb() { return g_rss_mb.load(); }

Totals totals() {
  (void)local();  // the calling thread is always part of the sum
  const std::lock_guard<std::mutex> lock(g_mutex);
  Totals sum = g_retired;
  for (const ThreadLedger* l : g_live) {
    for (int i = 0; i < kLayerCount; ++i) {
      sum.self[i] += l->totals.self[i];
      sum.total[i] += l->totals.total[i];
    }
    for (int i = 0; i < kCountCount; ++i) sum.counts[i] += l->totals.counts[i];
  }
  return sum;
}

}  // namespace perfbench::ledger
