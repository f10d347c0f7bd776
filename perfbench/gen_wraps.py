#!/usr/bin/env python3
"""Finds the mangled names of the simulator functions the traced benchmark
wraps, and writes them as a header of asm labels and a linker response file
of --wrap flags.

    gen_wraps.py LIBRARY.a OUT_HEADER OUT_RESPONSE_FILE

Symbols are looked up by their demangled names, so a change to a parameter
type (the Message variant gaining a kind, say) needs no edit here. A function
that is gone or became ambiguous stops the traced build with its name."""
import re
import subprocess
import sys

# macro suffix -> regular expression over the demangled name
WRAPS = {
    "QUEUE_PUSH_DELIVERY": r"stclock::EventQueue::push_delivery\(",
    "QUEUE_PUSH_TIMER": r"stclock::EventQueue::push_timer\(",
    "QUEUE_POP": r"stclock::EventQueue::pop\(\)",
    "QUEUE_NEXT_TIME": r"stclock::EventQueue::next_time\(\)",
    "CONTEXT_BROADCAST": r"stclock::Context::broadcast\(",
    "SIGNER_SIGN": r"stclock::crypto::Signer::sign\(",
    "REGISTRY_VERIFY": r"stclock::crypto::KeyRegistry::verify\(",
    "REGISTRY_CTOR": r"stclock::crypto::KeyRegistry::KeyRegistry\(",
    "SKEW_SAMPLE": r"stclock::SkewTracker::sample\(",
    "ENVELOPE_SAMPLE": r"stclock::EnvelopeTracker::sample\(",
    "LOGICAL_READ": r"stclock::LogicalClock::read\(double\) const",
    "BUILD_TOPOLOGY": r"stclock::experiment::build_topology\(",
    "BUILD_CLOCK_FLEET": r"stclock::experiment::build_clock_fleet\(",
    "SIMULATOR_CTOR": r"stclock::Simulator::Simulator\(",
    "RUN_UNTIL": r"stclock::Simulator::run_until\(",
    "MAKE_ATTACK": r"stclock::make_attack\(",
    "RUN_SCENARIO": r"stclock::experiment::run_scenario\(stclock::experiment::ScenarioSpec const&\)",
    "SWEEP_RUN": r"stclock::experiment::SweepRunner::run\(std::vector<stclock::experiment::SweepCell",
    "CELL_KEY": r"stclock::resultstore::cell_key(\[abi:cxx11\])?\(stclock::experiment::ScenarioSpec const&\)",
    "STORE_SAVE": r"stclock::resultstore::ResultStore::save\(",
    "STORE_LOAD": r"stclock::resultstore::ResultStore::load\(",
}


def defined_text_symbols(library):
    def nm(*flags):
        out = subprocess.run(["nm", "--defined-only", *flags, library],
                             capture_output=True, text=True, check=True).stdout
        return out.splitlines()

    pairs = []
    for raw, pretty in zip(nm(), nm("-C")):
        parts = raw.split(" ", 2)
        if len(parts) == 3 and parts[1] == "T":
            pairs.append((parts[2], pretty.split(" ", 2)[2]))
    return pairs


def main(library, header, response):
    symbols = defined_text_symbols(library)
    lines = ["// Generated by gen_wraps.py from the library under test.", "#pragma once"]
    flags = []
    for macro, pattern in WRAPS.items():
        regex = re.compile(pattern)
        found = sorted({m for m, d in symbols if regex.match(d)})
        # A constructor comes as complete-object (C1) and base-object (C2)
        # symbols; call sites outside the class name the complete one.
        if len(found) > 1:
            found = [m for m in found if "C1E" in m] or found
        if len(found) != 1:
            sys.exit(f"gen_wraps.py: {len(found)} symbols match {pattern}: {found}")
        lines.append(f'#define PB_SYM_{macro} "{found[0]}"')
        flags.append(f"-Wl,--wrap={found[0]}")
    with open(header, "w") as out:
        out.write("\n".join(lines) + "\n")
    with open(response, "w") as out:
        out.write("\n".join(flags) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(*sys.argv[1:])
