// The legacy SpMT stepper, the event engine's differential reference
// (docs/SIMULATOR.md). It implements the same Section-3 execution model
// as spmt::run_spmt; tests/event_sim_test.cpp asserts that the two agree
// bit for bit on stats, memory images, fingerprints and traces.
#pragma once

#include "codegen/kernel_program.hpp"
#include "machine/spmt_config.hpp"
#include "spmt/address.hpp"
#include "spmt/sim.hpp"

namespace tms::test {

/// Runs the kernel program for `opts.iterations` source iterations on
/// the legacy stepper. Unlike spmt::run_spmt it flushes no obs counters
/// and opens no trace span.
spmt::SpmtResult run_legacy_stepper(const ir::Loop& loop, const codegen::KernelProgram& kp,
                                    const machine::SpmtConfig& cfg,
                                    const spmt::AddressStreams& streams,
                                    const spmt::SpmtOptions& opts = {});

}  // namespace tms::test
