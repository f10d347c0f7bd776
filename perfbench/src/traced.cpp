#include "traced.h"

#include <memory>
#include <utility>

#include "core/joiner.h"
#include "core/stab_sync.h"
#include "core/sync_protocol.h"
#include "ledger.h"

namespace perfbench::traced {

namespace {

using ledger::Span;
using stclock::BroadcastPrimitive;
using stclock::Context;
using stclock::Message;
using stclock::NodeId;
using stclock::Round;
using stclock::TimerId;

class TracedPrimitive final : public BroadcastPrimitive {
 public:
  explicit TracedPrimitive(std::unique_ptr<BroadcastPrimitive> inner) : inner_(std::move(inner)) {
    inner_->set_accept_handler([this](Context& ctx, Round k) {
      ledger::count(ledger::kAccepts);
      const Span span(ledger::kCore);
      deliver_accept(ctx, k);
    });
  }

  void broadcast_ready(Context& ctx, Round k) override {
    const Span span(ledger::kBroadcast);
    inner_->broadcast_ready(ctx, k);
  }
  bool handle_message(Context& ctx, NodeId from, const Message& m) override {
    ledger::count(ledger::kPrimitiveMessages);
    const Span span(ledger::kBroadcast);
    return inner_->handle_message(ctx, from, m);
  }
  void forget_below(Round floor) override { inner_->forget_below(floor); }
  [[nodiscard]] stclock::Duration accept_spread(stclock::Duration tdel) const override {
    return inner_->accept_spread(tdel);
  }
  void corrupt_state(stclock::Rng& rng) override { inner_->corrupt_state(rng); }
  void stabilize(Round expected_floor) override { inner_->stabilize(expected_floor); }

 private:
  std::unique_ptr<BroadcastPrimitive> inner_;
};

class TracedSync final : public stclock::SyncProtocol {
 public:
  using SyncProtocol::SyncProtocol;
  ~TracedSync() override { ledger::count(ledger::kPulses, pulse_count()); }
  TracedSync(const TracedSync&) = delete;
  TracedSync& operator=(const TracedSync&) = delete;

  void on_start(Context& ctx) override {
    const Span span(ledger::kCore);
    SyncProtocol::on_start(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& m) override {
    const Span span(ledger::kCore);
    SyncProtocol::on_message(ctx, from, m);
  }
  void on_timer(Context& ctx, TimerId id) override {
    const Span span(ledger::kCore);
    SyncProtocol::on_timer(ctx, id);
  }
};

class TracedProcess final : public stclock::Process {
 public:
  explicit TracedProcess(std::unique_ptr<stclock::Process> inner) : inner_(std::move(inner)) {}

  void on_start(Context& ctx) override {
    const Span span(ledger::kCore);
    inner_->on_start(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& m) override {
    const Span span(ledger::kCore);
    inner_->on_message(ctx, from, m);
  }
  void on_timer(Context& ctx, TimerId id) override {
    const Span span(ledger::kCore);
    inner_->on_timer(ctx, id);
  }
  void on_tick(Context& ctx) override {
    const Span span(ledger::kCore);
    inner_->on_tick(ctx);
  }
  void corrupt_state(stclock::Rng& rng) override { inner_->corrupt_state(rng); }

 private:
  std::unique_ptr<stclock::Process> inner_;
};

class TracedAdversary final : public stclock::Adversary {
 public:
  explicit TracedAdversary(std::unique_ptr<stclock::Adversary> inner) : inner_(std::move(inner)) {}

  void on_start(stclock::AdversaryContext& ctx) override {
    const Span span(ledger::kAdversary);
    inner_->on_start(ctx);
  }
  void on_message(stclock::AdversaryContext& ctx, NodeId at, NodeId from,
                  const Message& m) override {
    const Span span(ledger::kAdversary);
    inner_->on_message(ctx, at, from, m);
  }
  void on_timer(stclock::AdversaryContext& ctx, TimerId id) override {
    const Span span(ledger::kAdversary);
    inner_->on_timer(ctx, id);
  }

 private:
  std::unique_ptr<stclock::Adversary> inner_;
};

std::unique_ptr<BroadcastPrimitive> traced_primitive(const stclock::experiment::ScenarioSpec& spec) {
  return std::make_unique<TracedPrimitive>(
      stclock::make_primitive(spec.cfg, stclock::experiment::broadcast_fanin(spec)));
}

}  // namespace

stclock::experiment::ProcessFactory factory(
    const std::string& protocol, const stclock::experiment::ProtocolRegistry::Entry& entry) {
  using stclock::experiment::ScenarioSpec;
  if (protocol == "auth" || protocol == "echo") {
    return [](const ScenarioSpec& spec, NodeId, bool joining) -> std::unique_ptr<stclock::Process> {
      return std::make_unique<TracedSync>(spec.cfg, traced_primitive(spec), joining);
    };
  }
  if (protocol == "auth_stab") {
    return [](const ScenarioSpec& spec, NodeId, bool joining) -> std::unique_ptr<stclock::Process> {
      return std::make_unique<stclock::StabSyncProtocol>(spec.cfg, traced_primitive(spec), joining);
    };
  }
  if (entry.mode == stclock::experiment::EngineMode::kBaseline) {
    return [inner = entry.factory](const ScenarioSpec& spec, NodeId id,
                                   bool joining) -> std::unique_ptr<stclock::Process> {
      return std::make_unique<TracedProcess>(inner(spec, id, joining));
    };
  }
  return entry.factory;
}

std::unique_ptr<stclock::Adversary> adversary(std::unique_ptr<stclock::Adversary> inner) {
  if (inner == nullptr) return inner;
  return std::make_unique<TracedAdversary>(std::move(inner));
}

}  // namespace perfbench::traced
