// The checker's own tests: real cells must pass, and a result that breaks
// any one property must be rejected.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "experiment/registry.h"

namespace {

namespace ex = stclock::experiment;
using perfbench::checks::check_cell;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct Cell {
  ex::ScenarioSpec spec;  // resolved
  ex::EngineMode mode;
  ex::ScenarioResult result;
  std::uint32_t hops;
};

Cell run(ex::ScenarioSpec spec) {
  const ex::ProtocolRegistry::Entry& entry = ex::ProtocolRegistry::global().at(spec.protocol);
  Cell c{ex::resolved_spec(spec), entry.mode, ex::run_scenario(spec), 0};
  c.hops = perfbench::checks::relay_hops(c.spec);
  return c;
}

ex::ScenarioSpec base(const std::string& protocol, std::uint32_t n, std::uint32_t f) {
  ex::ScenarioSpec s;
  s.protocol = protocol;
  s.cfg.n = n;
  s.cfg.f = f;
  s.cfg.rho = 1e-4;
  s.cfg.tdel = 0.01;
  s.cfg.period = 1.0;
  s.cfg.initial_sync = 0.005;
  s.seed = 17;
  s.horizon = 12.0;
  s.delta = 0.05;
  return s;
}

using Mutation = std::function<void(ex::ScenarioResult&)>;

/// The real result passes; each mutation of it is rejected.
void exercise(const std::string& name, const Cell& cell,
              const std::vector<std::pair<std::string, Mutation>>& mutations) {
  const std::vector<std::string> clean = check_cell(cell.spec, cell.mode, cell.result, cell.hops);
  expect(clean.empty(), name + ": real result passes" + (clean.empty() ? "" : " - " + clean[0]));
  for (const auto& [what, mutate] : mutations) {
    ex::ScenarioResult broken = cell.result;
    mutate(broken);
    expect(!check_cell(cell.spec, cell.mode, broken, cell.hops).empty(),
           name + ": rejects " + what);
  }
}

}  // namespace

int main() {
  using R = ex::ScenarioResult;
  ex::ScenarioSpec auth = base("auth", 9, 4);
  auth.attack = stclock::AttackKind::kSpamEarly;
  auth.horizon = 6.0;
  const Cell sync = run(auth);
  const perfbench::checks::SyncBounds b = perfbench::checks::sync_bounds(sync.spec.cfg, 1);
  exercise("auth f=4 spam-early", sync,
           {{"a stalled node", [](R& r) { r.live = false; }},
            {"skew above Dmax", [&](R& r) { r.steady_skew = b.dmax * 1.01; }},
            {"pulse spread above D", [&](R& r) { r.pulse_spread = b.D * 1.5; }},
            {"too few pulses", [](R& r) { r.min_pulses = 1; }},
            {"too many pulses", [](R& r) { r.max_pulses = 50; }},
            {"a period below the bound", [&](R& r) { r.min_period = b.min_period * 0.99; }},
            {"a period above the bound", [&](R& r) { r.max_period = b.max_period * 1.01; }},
            {"a rate below rate_lo", [&](R& r) { r.envelope.min_rate = b.rate_lo - 0.05; }},
            {"a rate above rate_hi", [&](R& r) { r.envelope.max_rate = b.rate_hi + 0.05; }},
            {"a program bound that disagrees", [](R& r) { r.bounds.precision *= 1.001; }},
            {"no events", [](R& r) { r.events_dispatched = 0; }}});

  ex::ScenarioSpec sparse = base("auth", 64, 0);
  sparse.topology = stclock::TopologyKind::kExpander;
  sparse.broadcast_mode = stclock::BroadcastMode::kSampled;
  sparse.sample_size = 3;
  sparse.horizon = 6.0;
  const Cell sampled = run(sparse);
  const double sparse_dmax = perfbench::checks::sync_bounds(sampled.spec.cfg, sampled.hops).dmax;
  expect(sampled.hops > 1, "sparse fabric needs more than one relay hop");
  exercise("auth sampled expander", sampled,
           {{"skew above the sparse envelope", [&](R& r) { r.steady_skew = sparse_dmax * 1.01; }},
            {"a stalled node", [](R& r) { r.live = false; }}});

  exercise("unsynchronized", run(base("unsynchronized", 10, 3)),
           {{"messages", [](R& r) { r.messages_sent = 1; }},
            {"skew beyond drift", [](R& r) { r.max_skew = 0.5; }},
            {"a rate beyond the hardware", [](R& r) { r.envelope.max_rate = 1.01; }},
            {"local above global skew", [](R& r) { r.local_skew = r.max_skew + 0.01; }}});
  exercise("leader", run(base("leader", 10, 3)),
           {{"skew above its bound", [](R& r) { r.steady_skew = 0.02; }},
            {"extra messages", [](R& r) { r.messages_sent *= 2; }}});
  ex::ScenarioSpec corrupt = base("leader_corrupt", 10, 3);
  exercise("leader_corrupt", run(corrupt),
           {{"followers inside the envelope", [](R& r) { r.envelope.min_rate = 1.0; }}});
  ex::ScenarioSpec lw = base("lundelius_welch", 10, 3);
  lw.attack = stclock::AttackKind::kLwPull;
  exercise("lundelius_welch lw-pull", run(lw),
           {{"skew above its bound", [](R& r) { r.steady_skew = 0.05; }}});
  ex::ScenarioSpec cnv = base("interactive_convergence", 10, 3);
  cnv.attack = stclock::AttackKind::kCnvPull;
  exercise("interactive_convergence cnv-pull", run(cnv),
           {{"skew above delta", [](R& r) { r.steady_skew = 0.06; }}});
  ex::ScenarioSpec hssd = base("hssd", 10, 3);
  hssd.attack = stclock::AttackKind::kHssdEarly;
  exercise("hssd hssd-early", run(hssd),
           {{"skew above its bound", [](R& r) { r.steady_skew = 0.2; }}});
  ex::ScenarioSpec gradient = base("gradient", 32, 0);
  gradient.topology = stclock::TopologyKind::kRing;
  exercise("gradient ring", run(gradient),
           {{"spread above its hull bound", [](R& r) { r.max_skew = 1.0; r.local_skew = 0; }}});

  perfbench::checks::PathTotals paths{10, 10, 7, 7};
  expect(perfbench::checks::check_paths(paths).empty(), "paths: equal totals pass");
  paths.counted_pops = 11;
  expect(!perfbench::checks::check_paths(paths).empty(), "paths: rejects pops != events");
  paths = {10, 10, 7, 6};
  expect(!perfbench::checks::check_paths(paths).empty(), "paths: rejects pushes != delivered");

  perfbench::checks::CachePasses cache{4, 0, 4, 4, 0, "a,b\n", "a,b\n"};
  expect(perfbench::checks::check_cache(cache).empty(), "cache: cold misses, warm hits pass");
  auto broken = cache;
  broken.warm_hits = 3;
  broken.warm_misses = 1;
  expect(!perfbench::checks::check_cache(broken).empty(), "cache: rejects a warm miss");
  broken = cache;
  broken.cold_hits = 1;
  broken.cold_misses = 3;
  expect(!perfbench::checks::check_cache(broken).empty(), "cache: rejects a cold hit");
  broken = cache;
  broken.warm_sink = "a,c\n";
  expect(!perfbench::checks::check_cache(broken).empty(), "cache: rejects different sink bytes");

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
