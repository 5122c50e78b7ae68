// Output checks and behaviour fingerprints of the benchmark.
//
// The checks need no stored answers, so any seed can be verified: they
// test the invariants every correct output satisfies. Each returns "" when
// the output passes and otherwise a description of the first violation,
// prefixed with the check's tag ("capacity:", "eligibility:", ...). The
// self-test corrupts known-good outputs and confirms that the matching tag
// fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/offline/progressive_filling.h"
#include "load/driver.h"
#include "sim/des.h"
#include "sim/workload.h"

namespace perfbench {

// DES: every task is placed once and finishes ("dropped:"); submit <=
// schedule <= finish and finish - schedule is the task's runtime
// ("order:"); every placement satisfies its job's constraint
// ("eligibility:"); no machine exceeds its capacity at any instant
// ("capacity:").
std::string CheckSimResult(const tsf::Workload& workload,
                           const tsf::SimResult& result);

// Offline progressive filling: the allocation respects machine capacity
// ("offline-capacity:") and eligibility ("offline-eligibility:"); each
// reported share is the user's tasks over its denominator
// ("offline-share:"); users frozen in one round sit at that round's level
// ("offline-level:"); levels do not decrease round to round
// ("offline-monotone:").
std::string CheckFilling(const tsf::CompiledProblem& problem,
                         const std::vector<double>& denominator,
                         const tsf::FillingResult& result);

// Load driver: every task of the stream was placed exactly once
// ("load-placements:") and the queue drained ("load-drain:").
std::string CheckLoadReport(const tsf::load::GeneratedStream& stream,
                            const tsf::load::LoadReport& report);

// FNV-1a fingerprints: equal behaviour gives equal fingerprints.
std::uint64_t FingerprintSim(const tsf::SimResult& result);
std::uint64_t FingerprintFilling(const tsf::FillingResult& result);

// Runs every check on a clean output (which must pass) and on deliberately
// corrupted copies (each must fire with the expected tag). Appends one line
// per case to *log; returns false if any case misbehaves.
bool RunCheckSelfTest(std::vector<std::string>* log);

}  // namespace perfbench
