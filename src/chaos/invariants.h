// Invariant checkers over recorded scheduler streams.
//
// Both substrates record their state transitions into one event log
// (core/stream_event.h StreamEvent); the checker replays the log against a
// shadow model of the cluster — free capacity, live tasks, machine up/down,
// user connectivity — and reports every invariant violation instead of
// aborting on the first, so the fuzzer can shrink a failing plan with the
// violation signature as the predicate.
//
// Invariants checked (the online-stack safety net of DESIGN.md §9):
//   - the virtual clock never runs backwards;
//   - tasks are only placed on up, allowed machines with room (no
//     oversubscription, whitelist compliance);
//   - a task id is live at most once, finishes/kills/failures name live
//     tasks on the machine the stream placed them on (no leaked or
//     duplicated ids across crash-rescheduling);
//   - a crash is preceded by the kill of every task the stream shows
//     running on that machine (a survivor == a leaked task);
//   - no launches for a disconnected user;
//   - at end of stream: every user completed exactly its task count, no
//     task is still live, and every up machine's free capacity returned to
//     its full capacity (resource conservation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/resource.h"
#include "core/stream_event.h"

namespace tsf::chaos {

// The static facts the checker validates a stream against. Capacity and
// demand must be in one consistent unit system (the scenario runners use
// raw units for Mesos and normalized units for the DES).
struct ScenarioView {
  std::vector<ResourceVector> capacity;     // per machine
  std::vector<ResourceVector> demand;       // per user, per-task
  std::vector<std::vector<bool>> allowed;   // [user][machine]
  std::vector<long> num_tasks;              // per user
  // Absolute slack for capacity comparisons (repeated +=/-= of doubles).
  double tolerance = 1e-6;
};

struct Violation {
  std::string invariant;  // stable snake_case id, e.g. "oversubscription"
  std::string detail;
  double time = 0.0;
  std::size_t event_index = 0;  // into the checked stream
};

std::string ToString(const Violation& violation);

// --- checker coverage (the guided fuzzer's feedback signal) -----------------

// One bit per checker branch: every violation class, the clean application
// of each event kind, and a few derived transitions (re-placement after a
// requeue, placement on a restarted machine, ...) that mark an interleaving
// as having exercised a deeper slice of the crash-recovery state machine.
// Ids are append-only: corpus entries record admission-time bitmaps and a
// renumbering would silently invalidate them.
enum class CoverageBranch : std::uint8_t {
  // Clean application of each event kind (no violation reported).
  kArriveOk,
  kPlaceOk,
  kFinishOk,
  kKillOk,
  kFailOk,
  kCrashOk,
  kRestartOk,
  kDisconnectOk,
  kReregisterOk,
  // Derived transitions the search should learn to reach.
  kPlaceAfterRestart,    // placement on a machine that crashed and came back
  kPlaceOfRequeuedTask,  // re-placement of a previously killed/failed task
  kCrashWithPriorKills,  // crash of a machine whose tasks were killed before
  kFinishOfRequeuedTask, // a requeued task ran to completion
  kPlaceWhilePeerDown,   // placement while some other machine is down
  // One bit per invariant class (Report call sites of invariants.cc).
  kClockRegression,
  kUnknownUser,
  kUnknownMachine,
  kDuplicateArrival,
  kPlaceBeforeArrival,
  kPlaceWhileDisconnected,
  kPlaceOnDownMachine,
  kWhitelistViolation,
  kOversubscription,
  kDuplicateTaskId,
  kGhostTask,
  kTaskIdentityMismatch,
  kFinishOnDownMachine,
  kFreeCapacityOverflow,
  kTaskSurvivedCrash,
  kCrashOfDownMachine,
  kRestartOfUpMachine,
  kDuplicateDisconnect,
  kReregisterWhileConnected,
  kLeakedTask,
  kIncompleteUser,
  kMachineLeftDown,
  kConservation,
  kNumBranches,
};

// The checker branches one stream replay exercised, as a 64-bit bitmap.
// Cheap by design: Hit is a shift+or, and with -DTSF_CHAOS_COVERAGE_OFF the
// instrumentation sites in invariants.cc compile out entirely (CheckStream
// then never touches the sink).
class ChaosCoverage {
 public:
  static constexpr std::size_t kBits =
      static_cast<std::size_t>(CoverageBranch::kNumBranches);
  static_assert(kBits <= 64, "coverage bitmap must fit one word");

  void Hit(CoverageBranch branch) {
    bits_ |= std::uint64_t{1} << static_cast<std::size_t>(branch);
  }
  bool Covers(CoverageBranch branch) const {
    return (bits_ >> static_cast<std::size_t>(branch)) & 1u;
  }
  std::uint64_t bits() const { return bits_; }
  std::size_t Count() const;
  void Merge(const ChaosCoverage& other) { bits_ |= other.bits_; }
  // Bits of `other` not yet in this map (the admission test of search.cc).
  std::uint64_t NovelBits(const ChaosCoverage& other) const {
    return other.bits_ & ~bits_;
  }

  bool operator==(const ChaosCoverage&) const = default;

 private:
  std::uint64_t bits_ = 0;
};

// Replays `stream` against the shadow model; returns every violation in
// stream order (empty == all invariants hold). With a non-null `coverage`
// the checker also records which of its branches the stream exercised
// (no-op when built with -DTSF_CHAOS_COVERAGE_OFF).
std::vector<Violation> CheckStream(const ScenarioView& view,
                                   const std::vector<StreamEvent>& stream,
                                   ChaosCoverage* coverage);
std::vector<Violation> CheckStream(const ScenarioView& view,
                                   const std::vector<StreamEvent>& stream);

}  // namespace tsf::chaos
