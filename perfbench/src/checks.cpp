#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "sim/topology.h"

namespace perfbench::checks {

namespace {

using stclock::experiment::EngineMode;
using stclock::experiment::ScenarioResult;
using stclock::experiment::ScenarioSpec;

constexpr double kEps = 1e-9;

class Failures {
 public:
  explicit Failures(const ScenarioSpec& spec) {
    std::ostringstream os;
    os << spec.protocol << " n=" << spec.cfg.n << " f=" << spec.cfg.f
       << " attack=" << stclock::attack_name(spec.attack) << " seed=" << spec.seed << ": ";
    prefix_ = os.str();
  }
  void require(bool ok, const std::string& what, double got, double bound) {
    if (ok) return;
    std::ostringstream os;
    os.precision(9);
    os << prefix_ << what << " (got " << got << ", bound " << bound << ")";
    lines_.push_back(os.str());
  }
  std::vector<std::string> take() { return std::move(lines_); }

 private:
  std::string prefix_;
  std::vector<std::string> lines_;
};

std::uint32_t eccentricity(const stclock::Topology& topo, stclock::NodeId source) {
  std::vector<std::uint32_t> dist(topo.n(), std::numeric_limits<std::uint32_t>::max());
  std::vector<stclock::NodeId> frontier{source};
  dist[source] = 0;
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    std::vector<stclock::NodeId> next;
    for (const stclock::NodeId a : frontier) {
      const auto [nbrs, degree] = topo.neighbor_span(a);
      for (std::size_t i = 0; i < degree; ++i) {
        if (dist[nbrs[i]] == std::numeric_limits<std::uint32_t>::max()) {
          dist[nbrs[i]] = dist[a] + 1;
          next.push_back(nbrs[i]);
        }
      }
    }
    if (!next.empty()) ++depth;
    frontier = std::move(next);
  }
  return depth;
}

stclock::Topology generate(const ScenarioSpec& spec) {
  using stclock::Topology;
  using stclock::TopologyKind;
  const std::uint32_t n = spec.cfg.n;
  switch (spec.topology) {
    case TopologyKind::kRing: return Topology::ring(n);
    case TopologyKind::kTorus: return Topology::torus(n);
    case TopologyKind::kStar: return Topology::star(n);
    case TopologyKind::kGnp: return Topology::gnp(n, spec.gnp_p, spec.topology_seed);
    case TopologyKind::kExpander: return Topology::expander(n, spec.expander_k, spec.topology_seed);
    case TopologyKind::kComplete:
    case TopologyKind::kCustom: break;
  }
  return Topology::complete(n);
}

void check_sync(const ScenarioSpec& spec, const ScenarioResult& r, std::uint32_t hops,
                Failures& fail) {
  const SyncBounds b = sync_bounds(spec.cfg, hops);
  const SyncBounds full = sync_bounds(spec.cfg, 1);
  const double horizon = spec.horizon;

  fail.require(r.live, "not live: some honest node stalled", r.live, 1);
  fail.require(r.steady_skew <= b.dmax, "steady skew above the precision bound", r.steady_skew,
               b.dmax);
  fail.require(r.pulse_spread <= b.D_eff + kEps, "pulse spread above the acceptance spread",
               r.pulse_spread, b.D_eff);
  const double min_pulses = std::floor(horizon / b.max_period) - 1;
  const double max_pulses = std::ceil(horizon / b.min_period) + 1;
  fail.require(static_cast<double>(r.min_pulses) >= min_pulses, "too few pulses",
               static_cast<double>(r.min_pulses), min_pulses);
  fail.require(static_cast<double>(r.max_pulses) <= max_pulses, "too many pulses",
               static_cast<double>(r.max_pulses), max_pulses);
  fail.require(r.min_period >= b.min_period - kEps, "period below its bound", r.min_period,
               b.min_period);
  fail.require(r.max_period <= b.max_period + kEps, "period above its bound", r.max_period,
               b.max_period);

  // The engine fits rates after the convergence prefix (two full-fan-in max
  // periods) when at least three envelope samples remain.
  const double steady_start = 2 * full.max_period;
  if (horizon > steady_start + 3 * spec.envelope_interval) {
    const double tol = 2 * b.dmax / (horizon - steady_start);
    fail.require(r.envelope.min_rate >= b.rate_lo - tol, "fitted rate below rate_lo - tol",
                 r.envelope.min_rate, b.rate_lo - tol);
    fail.require(r.envelope.max_rate <= b.rate_hi + tol, "fitted rate above rate_hi + tol",
                 r.envelope.max_rate, b.rate_hi + tol);
  }

  // The program's own derivation must agree with this one at full fan-in.
  const auto same = [](double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); };
  fail.require(same(r.bounds.precision, full.dmax), "program's precision bound differs",
               r.bounds.precision, full.dmax);
  fail.require(same(r.bounds.min_period, full.min_period), "program's min period differs",
               r.bounds.min_period, full.min_period);
  fail.require(same(r.bounds.max_period, full.max_period), "program's max period differs",
               r.bounds.max_period, full.max_period);
  fail.require(same(r.bounds.rate_lo, full.rate_lo), "program's rate_lo differs",
               r.bounds.rate_lo, full.rate_lo);
  fail.require(same(r.bounds.rate_hi, full.rate_hi), "program's rate_hi differs",
               r.bounds.rate_hi, full.rate_hi);
}

void check_baseline(const ScenarioSpec& spec, const ScenarioResult& r, Failures& fail) {
  const double rho = spec.cfg.rho;
  const double tdel = spec.cfg.tdel;
  const double P = spec.cfg.period;
  const double H = spec.horizon;
  const double W = spec.delta;
  const double gamma = (1 + rho) - 1 / (1 + rho);
  const std::string& p = spec.protocol;

  // Structural: adjacent pairs are a subset of all pairs.
  fail.require(r.local_skew <= r.max_skew + kEps, "local skew above global skew", r.local_skew,
               r.max_skew);
  fail.require(r.steady_local_skew <= r.steady_skew + kEps, "steady local skew above global",
               r.steady_local_skew, r.steady_skew);
  const bool fitted = H > 3 * P + 1.0;  // the engine's baseline fit condition

  if (p == "unsynchronized") {
    // Free-running clocks: spread grows at most at the relative drift rate.
    const double bound = spec.cfg.initial_sync + gamma * H;
    fail.require(r.messages_sent == 0, "free-running clocks sent messages",
                 static_cast<double>(r.messages_sent), 0);
    fail.require(r.max_skew <= bound + kEps, "skew above initial spread + gamma * horizon",
                 r.max_skew, bound);
    if (fitted) {
      fail.require(r.envelope.min_rate >= 1 / (1 + rho) - kEps, "rate below hardware bound",
                   r.envelope.min_rate, 1 / (1 + rho));
      fail.require(r.envelope.max_rate <= 1 + rho + kEps, "rate above hardware bound",
                   r.envelope.max_rate, 1 + rho);
    }
  } else if (p == "leader") {
    // Followers copy the leader's clock plus the nominal delay tdel / 2: each
    // errs by at most tdel / 2 (+ rho tdel), so two differ by (1+rho) tdel,
    // plus the drift they gather until the next update (one leader period
    // and a delivery, twice for the update window).
    const double bound = (1 + rho) * tdel + 2 * gamma * (1 + rho) * (P + tdel);
    fail.require(r.steady_skew <= bound, "honest-leader skew above its bound", r.steady_skew,
                 bound);
    // One broadcast of n messages per leader period.
    const double msgs = spec.cfg.n * (std::floor(H * (1 + rho) / P) + 1);
    fail.require(static_cast<double>(r.messages_sent) <= msgs, "leader sent more than n per period",
                 static_cast<double>(r.messages_sent), msgs);
  } else if (p == "leader_corrupt") {
    // Followers slave unconditionally: the corrupt leader's fast clock drags
    // every follower out of the hardware envelope.
    if (fitted) {
      fail.require(r.envelope.min_rate > 1 + rho, "followers did not follow the leader",
                   r.envelope.min_rate, 1 + rho);
    }
  } else if (p == "lundelius_welch") {
    // Welch–Lynch: with reading error eps = tdel / 2, the fault-tolerant
    // midpoint keeps clocks within beta + eps, beta = 4 eps + 4 rho P, plus
    // the drift over a collection window.
    const double eps = tdel / 2;
    const double window = W + 4 * eps;
    const double beta = 4 * eps + 4 * rho * (1 + rho) * P;
    const double bound = beta + eps + 4 * rho * (P + window);
    fail.require(r.steady_skew <= bound, "fault-tolerant midpoint skew above its bound",
                 r.steady_skew, bound);
  } else if (p == "interactive_convergence") {
    // Interactive convergence keeps agreement within its discard threshold.
    fail.require(r.steady_skew <= W, "averaging skew above the discard threshold",
                 r.steady_skew, W);
  } else if (p == "hssd") {
    // One signature resets C := kP + beta within the window [kP - W, kP + W];
    // the relay brings every honest node along within tdel. A node that has
    // not reset yet lags by at most W + beta + (1+rho) tdel, plus drift.
    const double beta = tdel;
    const double bound = W + beta + (1 + rho) * tdel + gamma * (1 + rho) * (P + W);
    fail.require(r.steady_skew <= bound, "single-signature skew above its bound", r.steady_skew,
                 bound);
  } else if (p == "gradient") {
    // Averaging stays inside the hull of its estimates, each off by at most
    // (1+rho) tdel, so the spread grows by at most that much per round on
    // top of the free-running drift.
    const double rounds = std::ceil(H * (1 + rho) / P) + 1;
    const double bound = spec.cfg.initial_sync + gamma * H + rounds * (1 + rho) * tdel;
    fail.require(r.max_skew <= bound, "averaging spread above its hull bound", r.max_skew, bound);
  }
}

/// True when every node hears every other directly: the complete graph with
/// a fan-out that reaches all peers.
bool full_fanin(const ScenarioSpec& spec) {
  if (spec.topology != stclock::TopologyKind::kComplete) return false;
  return spec.broadcast_mode != stclock::BroadcastMode::kSampled ||
         spec.sample_size + 1 >= spec.cfg.n;
}

}  // namespace

SyncBounds sync_bounds(const stclock::SyncConfig& cfg, std::uint32_t hops) {
  SyncBounds b;
  const double rho = cfg.rho;
  const double P = cfg.period;
  b.D = cfg.variant == stclock::Variant::kAuthenticated ? cfg.tdel : 2 * cfg.tdel;
  b.D_eff = b.D * std::max<std::uint32_t>(hops, 1);
  // alpha defaults to (1 + rho) D of one hop: the protocol does not know the
  // fabric's hop count.
  b.alpha = cfg.alpha > 0 ? cfg.alpha : (1 + rho) * b.D;
  b.gamma = (1 + rho) - 1 / (1 + rho);
  const double D = b.D_eff;
  const double ready = P - b.alpha;  // local progress from a reset to the next readiness
  // Consecutive pulses of one process: readiness takes [ready/(1+rho),
  // (1+rho) ready] real time, and acceptance lands within D of it on either side.
  b.min_period = ready / (1 + rho) - D;
  b.max_period = (1 + rho) * ready + 2 * D;
  // Precision: drift over one round plus the reset window ("phase A"), plus
  // alpha and the reset-window lead across a round boundary ("phase B").
  const double skew_a = b.gamma * ((1 + rho) * ready + 2 * D) + D;
  b.dmax = skew_a + b.alpha + (1 + rho) * D;
  // Accuracy: fastest pace P per ready/(1+rho), slowest P per max period.
  b.rate_hi = (1 + rho) * P / ready;
  b.rate_lo = P / ((1 + rho) * ready + 2 * D);
  return b;
}

std::uint32_t relay_hops(const ScenarioSpec& spec) {
  if (full_fanin(spec)) return 1;
  const stclock::Topology topo = generate(spec);
  if (topo.n() > 4096) return 2 * eccentricity(topo, 0);
  std::uint32_t diameter = 1;
  for (stclock::NodeId v = 0; v < topo.n(); ++v) diameter = std::max(diameter, eccentricity(topo, v));
  return diameter;
}

std::vector<std::string> check_cell(const ScenarioSpec& spec, EngineMode mode,
                                    const ScenarioResult& result, std::uint32_t hops) {
  Failures fail(spec);
  fail.require(result.events_dispatched > 0, "no events dispatched",
               static_cast<double>(result.events_dispatched), 1);
  fail.require(result.messages_dropped <= result.messages_sent, "more drops than sends",
               static_cast<double>(result.messages_dropped),
               static_cast<double>(result.messages_sent));
  if (mode == EngineMode::kSyncProtocol) {
    check_sync(spec, result, hops, fail);
  } else {
    check_baseline(spec, result, fail);
  }
  return fail.take();
}

std::vector<std::string> check_paths(const PathTotals& t) {
  std::vector<std::string> out;
  if (t.counted_pops != t.events_dispatched) {
    out.push_back("counted queue pops " + std::to_string(t.counted_pops) +
                  " != events_dispatched " + std::to_string(t.events_dispatched));
  }
  if (t.counted_delivery_pushes != t.messages_delivered) {
    out.push_back("counted push_delivery calls " + std::to_string(t.counted_delivery_pushes) +
                  " != messages_sent - messages_dropped " + std::to_string(t.messages_delivered));
  }
  return out;
}

std::vector<std::string> check_cache(const CachePasses& c) {
  std::vector<std::string> out;
  if (c.cold_hits != 0 || c.cold_misses != c.cells) {
    out.push_back("cold pass into an empty store: " + std::to_string(c.cold_hits) + " hits, " +
                  std::to_string(c.cold_misses) + " misses of " + std::to_string(c.cells));
  }
  if (c.warm_hits != c.cells || c.warm_misses != 0) {
    out.push_back("warm pass: " + std::to_string(c.warm_hits) + " hits, " +
                  std::to_string(c.warm_misses) + " misses of " + std::to_string(c.cells));
  }
  if (c.cold_sink != c.warm_sink) out.push_back("warm sink bytes differ from the cold pass's");
  if (c.cold_sink.empty()) out.push_back("empty sink output");
  return out;
}

}  // namespace perfbench::checks
