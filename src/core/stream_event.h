// The event log both online substrates record (sim/des.h Simulate and
// mesos/mesos.h RunCluster): one record per state transition, in order.
// The golden placement-stream hashes, the chaos invariant checkers
// (chaos/invariants.h) and the load driver's SLO metrics (load/driver.h)
// all read this one type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tsf {

struct StreamEvent {
  // The ordinals are hashed by the load driver's DES placement hash, so the
  // order is fixed: append, never reorder.
  enum class Kind {
    kArrive,      // user registered (task/machine zero)
    kPlace,       // task placed on machine
    kFinish,      // task completed on machine
    kKill,        // task killed by a machine crash, requeued
    kFail,        // task failed (machine stays up), requeued
    kCrash,       // machine went down (user/task zero)
    kRestart,     // machine came back (user/task zero)
    kDisconnect,  // user stopped receiving offers (Mesos only)
    kReregister,  // user resumed receiving offers (Mesos only)
  };
  double time = 0.0;
  Kind kind = Kind::kArrive;
  std::uint32_t user = 0;
  // Substrate-scoped task id. The DES uses the task's global slot, dense
  // over (job, index), which survives fault-driven retries; Mesos uses a
  // master-global launch id, fresh on every (re)launch.
  std::uint32_t task = 0;
  std::uint32_t machine = 0;
  // The DES slot's placement generation (0-based; a kill or failure bumps
  // it). Always 0 on Mesos. Not part of FormatStreamEvent.
  std::uint32_t attempt = 0;

  bool operator==(const StreamEvent&) const = default;
};

std::string ToString(StreamEvent::Kind kind);
// One-line rendering, "t=<time> <kind> user=<u> task=<t> machine=<m>" — the
// unit of the golden placement streams and the first-divergence diffs.
std::string FormatStreamEvent(const StreamEvent& event);
// FNV-1a over the formatted lines; the golden tests' stream fingerprint.
std::uint64_t HashStream(const std::vector<StreamEvent>& stream);

}  // namespace tsf
