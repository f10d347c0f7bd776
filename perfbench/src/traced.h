#pragma once

#include <string>

#include "experiment/registry.h"

/// Decorators the traced build installs through the engine's own extension
/// points: the process factory of run_scenario_with and the adversary that
/// make_attack returns. They open ledger spans around the protocol,
/// broadcast-primitive and adversary handlers, and forward everything else.
namespace perfbench::traced {

/// The registry entry's factory, with handler spans added: the
/// Srikanth–Toueg variants are built as the registry builds them but from a
/// subclass whose handlers open spans, over a primitive decorator; baselines
/// get a forwarding Process decorator. Protocols the decorators cannot reach
/// (auth_stab's class is final) keep their own process and get the span on
/// their primitive only.
[[nodiscard]] stclock::experiment::ProcessFactory factory(
    const std::string& protocol, const stclock::experiment::ProtocolRegistry::Entry& entry);

/// Wraps a strategy so its handlers open adversary spans (null stays null).
[[nodiscard]] std::unique_ptr<stclock::Adversary> adversary(
    std::unique_ptr<stclock::Adversary> inner);

}  // namespace perfbench::traced
