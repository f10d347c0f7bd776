#pragma once

#include <array>
#include <cstdint>

/// The traced build's cost ledger: spans (self and total time per layer) and
/// counts, recorded at the calls into each layer's public functions.
///
/// Spans nest on a per-thread stack. When a span closes, its duration goes to
/// its layer's total, and the part not covered by child spans goes to the
/// layer's self time. Times are taken with the CPU's time-stamp counter where
/// there is one (a few nanoseconds per read), so queue operations can be
/// timed without drowning them; functions smaller still (clock reads) are
/// only counted. Every thread keeps its own ledger; a finishing thread folds
/// it into a shared one, so sweep workers are accounted too.
namespace perfbench::ledger {

enum Layer : int {
  kRunLoop,         ///< Simulator::run_until minus everything it calls into
  kQueue,           ///< EventQueue push/pop/next_time
  kFanout,          ///< Context::broadcast (delay draws, sampling, sends)
  kCrypto,          ///< Signer::sign, KeyRegistry::verify
  kBroadcast,       ///< BroadcastPrimitive ready/handle_message
  kCore,            ///< protocol handlers (Process, acceptance callback)
  kTrace,           ///< SkewTracker / EnvelopeTracker sampling
  kAdversary,       ///< Adversary handlers
  kSetupTopology,   ///< build_topology
  kSetupClocks,     ///< build_clock_fleet
  kSetupKeys,       ///< KeyRegistry construction
  kSetupProcesses,  ///< Simulator construction and the process factory
  kCell,            ///< one scenario cell, end to end
  kSweep,           ///< SweepRunner::run, end to end
  kResultKey,       ///< resultstore::cell_key
  kResultPublish,   ///< ResultStore::save
  kResultLookup,    ///< ResultStore::load
  kScenfile,        ///< scenario-file loading
  kSinks,           ///< CSV/JSON sinks
  kLayerCount,
};

enum Count : int {
  kPushes,           ///< EventQueue pushes (timers and deliveries)
  kDeliveryPushes,   ///< EventQueue::push_delivery calls
  kPops,             ///< EventQueue::pop calls
  kDeliveryPops,     ///< popped deliveries
  kSigns,
  kVerifies,
  kPrimitiveMessages,  ///< messages fed to a broadcast primitive
  kAccepts,            ///< acceptances a primitive delivered
  kPulses,             ///< pulses of sync processes
  kClockReads,         ///< LogicalClock::read calls
  kTraceClockReads,    ///< ... of which made while a tracker samples
  kSamples,            ///< tracker sample calls
  kAdversarySends,     ///< deliveries the adversary queued
  kStoreHits,
  kStoreMisses,
  kStoreBytesWritten,
  kSweepWorkerSlots,   ///< sum over sweeps of workers x wall ticks
  kCountCount,
};

struct Totals {
  std::array<std::uint64_t, kLayerCount> self{};   ///< ticks
  std::array<std::uint64_t, kLayerCount> total{};  ///< ticks
  std::array<std::uint64_t, kCountCount> counts{};
};

/// Current tick count (TSC on x86-64, steady_clock nanoseconds elsewhere).
[[nodiscard]] std::uint64_t ticks();
/// Seconds per tick, calibrated against steady_clock since the first call.
[[nodiscard]] double seconds_per_tick();

void enter(Layer layer);
void leave();
/// The innermost open span's layer on this thread, or kLayerCount.
[[nodiscard]] Layer current();
void count(Count c, std::uint64_t k = 1);
/// Largest value seen (for sizes such as topology bytes).
void observe_max(std::uint64_t value);
[[nodiscard]] std::uint64_t max_observed();

/// Asks for the resident set size to be read at the next take_rss_sample().
void request_rss_sample();
/// Reads it if asked to (the run loop's wrapper calls this).
void take_rss_sample();
[[nodiscard]] double rss_after_setup_mb();

/// Sum over every thread, finished or running. Call with no spans open on
/// other threads.
[[nodiscard]] Totals totals();

class Span {
 public:
  explicit Span(Layer layer) { enter(layer); }
  ~Span() { leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench::ledger
