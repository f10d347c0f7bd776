// Linker-level wrappers (ld --wrap) around the simulator's cross-module
// calls, linked into the traced build only. Each wrapper opens a ledger span
// or bumps a count, then calls the real function. The symbol names come from
// wrap_symbols.h, which gen_wraps.py writes from the library under test.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signature.h"
#include "experiment/environment.h"
#include "experiment/registry.h"
#include "experiment/sweep.h"
#include "ledger.h"
#include "resultstore/store.h"
#include "sim/simulator.h"
#include "trace/envelope.h"
#include "trace/skew_tracker.h"
#include "traced.h"
#include "wrap_symbols.h"

#define PB_WRAP(name) asm("__wrap_" PB_SYM_##name)
#define PB_REAL(name) asm("__real_" PB_SYM_##name)

using perfbench::ledger::Span;
namespace ledger = perfbench::ledger;
namespace sc = stclock;
namespace ex = stclock::experiment;
namespace rs = stclock::resultstore;

// Member functions are declared as free functions taking the object first:
// the Itanium C++ ABI passes `this` as the leading argument.
void real_push_delivery(sc::EventQueue*, sc::RealTime, sc::DeliveryEvent) PB_REAL(QUEUE_PUSH_DELIVERY);
void real_push_timer(sc::EventQueue*, sc::RealTime, sc::TimerEvent) PB_REAL(QUEUE_PUSH_TIMER);
sc::Event real_pop(sc::EventQueue*) PB_REAL(QUEUE_POP);
sc::RealTime real_next_time(sc::EventQueue*) PB_REAL(QUEUE_NEXT_TIME);
void real_broadcast(sc::Context*, const sc::Message&) PB_REAL(CONTEXT_BROADCAST);
sc::crypto::Signature real_sign(const sc::crypto::Signer*, std::span<const std::uint8_t>)
    PB_REAL(SIGNER_SIGN);
bool real_verify(const sc::crypto::KeyRegistry*, const sc::crypto::Signature&,
                 std::span<const std::uint8_t>) PB_REAL(REGISTRY_VERIFY);
void real_registry_ctor(sc::crypto::KeyRegistry*, std::uint32_t, std::uint64_t)
    PB_REAL(REGISTRY_CTOR);
void real_skew_sample(sc::SkewTracker*, const sc::Simulator&) PB_REAL(SKEW_SAMPLE);
void real_envelope_sample(sc::EnvelopeTracker*, const sc::Simulator&) PB_REAL(ENVELOPE_SAMPLE);
sc::LocalTime real_logical_read(const sc::LogicalClock*, sc::RealTime) PB_REAL(LOGICAL_READ);
std::shared_ptr<const sc::Topology> real_build_topology(sc::TopologyKind, std::uint32_t, double,
                                                        std::uint64_t, std::uint32_t)
    PB_REAL(BUILD_TOPOLOGY);
std::vector<sc::HardwareClock> real_build_clock_fleet(sc::DriftKind, std::uint32_t, double,
                                                      double, double, double, sc::Rng&)
    PB_REAL(BUILD_CLOCK_FLEET);
void real_simulator_ctor(sc::Simulator*, sc::SimParams, std::vector<sc::HardwareClock>,
                         std::unique_ptr<sc::DelayPolicy>, const sc::crypto::KeyRegistry*)
    PB_REAL(SIMULATOR_CTOR);
void real_run_until(sc::Simulator*, sc::RealTime) PB_REAL(RUN_UNTIL);
std::unique_ptr<sc::Adversary> real_make_attack(sc::AttackKind, const sc::AttackParams&)
    PB_REAL(MAKE_ATTACK);
std::vector<ex::ScenarioResult> real_sweep_run(const ex::SweepRunner*,
                                               const std::vector<ex::SweepCell>&)
    PB_REAL(SWEEP_RUN);
std::string real_cell_key(const ex::ScenarioSpec&) PB_REAL(CELL_KEY);
void real_store_save(const rs::ResultStore*, const std::string&, const ex::ScenarioResult&)
    PB_REAL(STORE_SAVE);
std::optional<ex::ScenarioResult> real_store_load(const rs::ResultStore*, const std::string&)
    PB_REAL(STORE_LOAD);

void wrap_push_delivery(sc::EventQueue* q, sc::RealTime t, sc::DeliveryEvent ev)
    PB_WRAP(QUEUE_PUSH_DELIVERY);
void wrap_push_delivery(sc::EventQueue* q, sc::RealTime t, sc::DeliveryEvent ev) {
  if (ledger::current() == ledger::kAdversary) ledger::count(ledger::kAdversarySends);
  ledger::count(ledger::kPushes);
  ledger::count(ledger::kDeliveryPushes);
  const Span span(ledger::kQueue);
  real_push_delivery(q, t, std::move(ev));
}

void wrap_push_timer(sc::EventQueue* q, sc::RealTime t, sc::TimerEvent ev) PB_WRAP(QUEUE_PUSH_TIMER);
void wrap_push_timer(sc::EventQueue* q, sc::RealTime t, sc::TimerEvent ev) {
  ledger::count(ledger::kPushes);
  const Span span(ledger::kQueue);
  real_push_timer(q, t, ev);
}

sc::Event wrap_pop(sc::EventQueue* q) PB_WRAP(QUEUE_POP);
sc::Event wrap_pop(sc::EventQueue* q) {
  ledger::count(ledger::kPops);
  const Span span(ledger::kQueue);
  sc::Event ev = real_pop(q);
  if (!ev.is_timer) ledger::count(ledger::kDeliveryPops);
  return ev;
}

sc::RealTime wrap_next_time(sc::EventQueue* q) PB_WRAP(QUEUE_NEXT_TIME);
sc::RealTime wrap_next_time(sc::EventQueue* q) {
  const Span span(ledger::kQueue);
  return real_next_time(q);
}

void wrap_broadcast(sc::Context* ctx, const sc::Message& m) PB_WRAP(CONTEXT_BROADCAST);
void wrap_broadcast(sc::Context* ctx, const sc::Message& m) {
  const Span span(ledger::kFanout);
  real_broadcast(ctx, m);
}

sc::crypto::Signature wrap_sign(const sc::crypto::Signer* s, std::span<const std::uint8_t> p)
    PB_WRAP(SIGNER_SIGN);
sc::crypto::Signature wrap_sign(const sc::crypto::Signer* s, std::span<const std::uint8_t> p) {
  ledger::count(ledger::kSigns);
  const Span span(ledger::kCrypto);
  return real_sign(s, p);
}

bool wrap_verify(const sc::crypto::KeyRegistry* r, const sc::crypto::Signature& sig,
                 std::span<const std::uint8_t> p) PB_WRAP(REGISTRY_VERIFY);
bool wrap_verify(const sc::crypto::KeyRegistry* r, const sc::crypto::Signature& sig,
                 std::span<const std::uint8_t> p) {
  ledger::count(ledger::kVerifies);
  const Span span(ledger::kCrypto);
  return real_verify(r, sig, p);
}

void wrap_registry_ctor(sc::crypto::KeyRegistry* r, std::uint32_t n, std::uint64_t seed)
    PB_WRAP(REGISTRY_CTOR);
void wrap_registry_ctor(sc::crypto::KeyRegistry* r, std::uint32_t n, std::uint64_t seed) {
  const Span span(ledger::kSetupKeys);
  real_registry_ctor(r, n, seed);
}

void wrap_skew_sample(sc::SkewTracker* t, const sc::Simulator& sim) PB_WRAP(SKEW_SAMPLE);
void wrap_skew_sample(sc::SkewTracker* t, const sc::Simulator& sim) {
  ledger::count(ledger::kSamples);
  const Span span(ledger::kTrace);
  real_skew_sample(t, sim);
}

void wrap_envelope_sample(sc::EnvelopeTracker* t, const sc::Simulator& sim)
    PB_WRAP(ENVELOPE_SAMPLE);
void wrap_envelope_sample(sc::EnvelopeTracker* t, const sc::Simulator& sim) {
  ledger::count(ledger::kSamples);
  const Span span(ledger::kTrace);
  real_envelope_sample(t, sim);
}

// Too small to time without distorting it: counted only.
sc::LocalTime wrap_logical_read(const sc::LogicalClock* c, sc::RealTime t) PB_WRAP(LOGICAL_READ);
sc::LocalTime wrap_logical_read(const sc::LogicalClock* c, sc::RealTime t) {
  ledger::count(ledger::kClockReads);
  if (ledger::current() == ledger::kTrace) ledger::count(ledger::kTraceClockReads);
  return real_logical_read(c, t);
}

std::shared_ptr<const sc::Topology> wrap_build_topology(sc::TopologyKind kind, std::uint32_t n,
                                                        double p, std::uint64_t seed,
                                                        std::uint32_t k) PB_WRAP(BUILD_TOPOLOGY);
std::shared_ptr<const sc::Topology> wrap_build_topology(sc::TopologyKind kind, std::uint32_t n,
                                                        double p, std::uint64_t seed,
                                                        std::uint32_t k) {
  std::shared_ptr<const sc::Topology> topo;
  {
    const Span span(ledger::kSetupTopology);
    topo = real_build_topology(kind, n, p, seed, k);
  }
  if (topo) ledger::observe_max(topo->memory_bytes());
  return topo;
}

std::vector<sc::HardwareClock> wrap_build_clock_fleet(sc::DriftKind kind, std::uint32_t n,
                                                      double rho, double sync, double horizon,
                                                      double period, sc::Rng& rng)
    PB_WRAP(BUILD_CLOCK_FLEET);
std::vector<sc::HardwareClock> wrap_build_clock_fleet(sc::DriftKind kind, std::uint32_t n,
                                                      double rho, double sync, double horizon,
                                                      double period, sc::Rng& rng) {
  const Span span(ledger::kSetupClocks);
  return real_build_clock_fleet(kind, n, rho, sync, horizon, period, rng);
}

void wrap_simulator_ctor(sc::Simulator* sim, sc::SimParams params,
                         std::vector<sc::HardwareClock> clocks,
                         std::unique_ptr<sc::DelayPolicy> delays,
                         const sc::crypto::KeyRegistry* registry) PB_WRAP(SIMULATOR_CTOR);
void wrap_simulator_ctor(sc::Simulator* sim, sc::SimParams params,
                         std::vector<sc::HardwareClock> clocks,
                         std::unique_ptr<sc::DelayPolicy> delays,
                         const sc::crypto::KeyRegistry* registry) {
  const Span span(ledger::kSetupProcesses);
  real_simulator_ctor(sim, std::move(params), std::move(clocks), std::move(delays), registry);
}

void wrap_run_until(sc::Simulator* sim, sc::RealTime horizon) PB_WRAP(RUN_UNTIL);
void wrap_run_until(sc::Simulator* sim, sc::RealTime horizon) {
  ledger::take_rss_sample();
  const Span span(ledger::kRunLoop);
  real_run_until(sim, horizon);
}

std::unique_ptr<sc::Adversary> wrap_make_attack(sc::AttackKind kind, const sc::AttackParams& p)
    PB_WRAP(MAKE_ATTACK);
std::unique_ptr<sc::Adversary> wrap_make_attack(sc::AttackKind kind, const sc::AttackParams& p) {
  return perfbench::traced::adversary(real_make_attack(kind, p));
}

// run_scenario, with the registry factory swapped for its traced twin so
// sweep cells get handler spans too. The traced run's sink bytes are compared
// with the untraced run's, which would catch any drift from run_scenario.
ex::ScenarioResult wrap_run_scenario(const ex::ScenarioSpec& spec) PB_WRAP(RUN_SCENARIO);
ex::ScenarioResult wrap_run_scenario(const ex::ScenarioSpec& spec) {
  const Span span(ledger::kCell);
  const ex::ProtocolRegistry::Entry& entry = ex::ProtocolRegistry::global().at(spec.protocol);
  ex::ScenarioResult result = ex::run_scenario_with(
      ex::resolved_spec(spec), entry.mode, perfbench::traced::factory(spec.protocol, entry));
  result.protocol = spec.protocol;
  return result;
}

std::vector<ex::ScenarioResult> wrap_sweep_run(const ex::SweepRunner* runner,
                                               const std::vector<ex::SweepCell>& cells)
    PB_WRAP(SWEEP_RUN);
std::vector<ex::ScenarioResult> wrap_sweep_run(const ex::SweepRunner* runner,
                                               const std::vector<ex::SweepCell>& cells) {
  const std::uint64_t start = ledger::ticks();
  std::vector<ex::ScenarioResult> results;
  {
    const Span span(ledger::kSweep);
    results = real_sweep_run(runner, cells);
  }
  const std::uint64_t workers = std::min<std::uint64_t>(runner->threads(), cells.size());
  ledger::count(ledger::kSweepWorkerSlots, workers * (ledger::ticks() - start));
  return results;
}

std::string wrap_cell_key(const ex::ScenarioSpec& spec) PB_WRAP(CELL_KEY);
std::string wrap_cell_key(const ex::ScenarioSpec& spec) {
  const Span span(ledger::kResultKey);
  return real_cell_key(spec);
}

void wrap_store_save(const rs::ResultStore* store, const std::string& key,
                     const ex::ScenarioResult& result) PB_WRAP(STORE_SAVE);
void wrap_store_save(const rs::ResultStore* store, const std::string& key,
                     const ex::ScenarioResult& result) {
  {
    const Span span(ledger::kResultPublish);
    real_store_save(store, key, result);
  }
  ledger::count(ledger::kStoreBytesWritten, std::filesystem::file_size(store->object_path(key)));
}

std::optional<ex::ScenarioResult> wrap_store_load(const rs::ResultStore* store,
                                                  const std::string& key) PB_WRAP(STORE_LOAD);
std::optional<ex::ScenarioResult> wrap_store_load(const rs::ResultStore* store,
                                                  const std::string& key) {
  std::optional<ex::ScenarioResult> hit;
  {
    const Span span(ledger::kResultLookup);
    hit = real_store_load(store, key);
  }
  ledger::count(hit ? ledger::kStoreHits : ledger::kStoreMisses);
  return hit;
}
