#include "chaos/invariants.h"

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "util/check.h"

// The guided fuzzer's feedback instrumentation (ChaosCoverage). Each site
// costs one null check + shift/or; -DTSF_CHAOS_COVERAGE_OFF (CMake
// -DTSF_CHAOS_COVERAGE=OFF) compiles every site — and the derived-transition
// bookkeeping — out of the checker entirely.
#if !defined(TSF_CHAOS_COVERAGE_OFF)
#define TSF_CHAOS_COV(branch)                                          \
  do {                                                                 \
    if (coverage_ != nullptr) coverage_->Hit(CoverageBranch::branch);  \
  } while (0)
#else
#define TSF_CHAOS_COV(branch) \
  do {                        \
  } while (0)
#endif

namespace tsf::chaos {
namespace {

struct LiveTask {
  std::uint32_t user = 0;
  std::uint32_t machine = 0;
};

// Bundles the mutable shadow state so the per-kind handlers stay short.
class Checker {
 public:
  Checker(const ScenarioView& view, const std::vector<StreamEvent>& stream,
          ChaosCoverage* coverage)
      : view_(view), stream_(stream), coverage_(coverage) {
    TSF_CHECK_EQ(view.demand.size(), view.allowed.size());
    TSF_CHECK_EQ(view.demand.size(), view.num_tasks.size());
    free_ = view.capacity;
    up_.assign(view.capacity.size(), true);
    arrived_.assign(view.demand.size(), false);
    connected_.assign(view.demand.size(), true);
    finished_.assign(view.demand.size(), 0);
    for (const auto& allowed : view.allowed)
      TSF_CHECK_EQ(allowed.size(), view.capacity.size());
#if !defined(TSF_CHAOS_COVERAGE_OFF)
    restarted_.assign(view.capacity.size(), false);
    killed_on_.assign(view.capacity.size(), false);
#endif
  }

  std::vector<Violation> Run() {
    double prev_time = -std::numeric_limits<double>::infinity();
    for (index_ = 0; index_ < stream_.size(); ++index_) {
      const StreamEvent& event = stream_[index_];
      if (event.time < prev_time)
        Report(CoverageBranch::kClockRegression, "clock_regression", event.time,
               [&](std::ostream& out) {
                 out << ToString(event.kind) << " at t=" << event.time
                     << " after t=" << prev_time;
               });
      prev_time = std::max(prev_time, event.time);
      if (event.user >= view_.demand.size() &&
          RequiresUser(event.kind)) {
        Report(CoverageBranch::kUnknownUser, "unknown_user", event.time,
               [&](std::ostream& out) {
                 out << "user " << event.user << " out of range";
               });
        continue;
      }
      if (event.machine >= view_.capacity.size() &&
          RequiresMachine(event.kind)) {
        Report(CoverageBranch::kUnknownMachine, "unknown_machine", event.time,
               [&](std::ostream& out) {
                 out << "machine " << event.machine << " out of range";
               });
        continue;
      }
      Apply(event);
    }
    Finalize(prev_time);
    return std::move(violations_);
  }

 private:
  static bool RequiresUser(StreamEvent::Kind kind) {
    return kind != StreamEvent::Kind::kCrash &&
           kind != StreamEvent::Kind::kRestart;
  }
  static bool RequiresMachine(StreamEvent::Kind kind) {
    return kind == StreamEvent::Kind::kPlace ||
           kind == StreamEvent::Kind::kFinish ||
           kind == StreamEvent::Kind::kKill ||
           kind == StreamEvent::Kind::kFail ||
           kind == StreamEvent::Kind::kCrash ||
           kind == StreamEvent::Kind::kRestart;
  }

  // Every violation class doubles as a coverage branch: the guided fuzzer
  // learns to reach checker code paths whether or not they fire cleanly.
  template <class Fn>
  void Report(CoverageBranch branch, const char* invariant, double time,
              Fn&& detail) {
#if !defined(TSF_CHAOS_COVERAGE_OFF)
    if (coverage_ != nullptr) coverage_->Hit(branch);
#else
    (void)branch;
#endif
    Violation violation;
    violation.invariant = invariant;
    violation.time = time;
    violation.event_index = index_;
    std::ostringstream out;
    detail(out);
    violation.detail = out.str();
    violations_.push_back(std::move(violation));
  }

  void Apply(const StreamEvent& event) {
    const double t = event.time;
    switch (event.kind) {
      case StreamEvent::Kind::kArrive:
        if (arrived_[event.user])
          Report(CoverageBranch::kDuplicateArrival, "duplicate_arrival", t,
                 [&](std::ostream& out) {
                   out << "user " << event.user << " arrived twice";
                 });
        arrived_[event.user] = true;
        TSF_CHAOS_COV(kArriveOk);
        break;

      case StreamEvent::Kind::kPlace: {
        if (!arrived_[event.user])
          Report(CoverageBranch::kPlaceBeforeArrival, "place_before_arrival", t,
                 [&](std::ostream& out) {
                   out << "user " << event.user;
                 });
        if (!connected_[event.user])
          Report(CoverageBranch::kPlaceWhileDisconnected,
                 "place_while_disconnected", t, [&](std::ostream& out) {
                   out << "user " << event.user << " on machine "
                       << event.machine;
                 });
        if (!up_[event.machine])
          Report(CoverageBranch::kPlaceOnDownMachine,
                 "place_on_down_machine", t, [&](std::ostream& out) {
                   out << "user " << event.user << " task " << event.task
                       << " on machine " << event.machine;
                 });
        if (!view_.allowed[event.user][event.machine])
          Report(CoverageBranch::kWhitelistViolation, "whitelist_violation", t,
                 [&](std::ostream& out) {
                   out << "user " << event.user << " not allowed on machine "
                       << event.machine;
                 });
        const ResourceVector& demand = view_.demand[event.user];
        ResourceVector& room = free_[event.machine];
        for (std::size_t r = 0; r < demand.dimension(); ++r)
          if (demand[r] > room[r] + view_.tolerance) {
            Report(CoverageBranch::kOversubscription, "oversubscription", t,
                   [&](std::ostream& out) {
                     out << "machine " << event.machine << " resource " << r
                         << ": demand " << demand[r] << " > free " << room[r];
                   });
            break;
          }
        if (live_.count(event.task) != 0)
          Report(CoverageBranch::kDuplicateTaskId, "duplicate_task_id", t,
                 [&](std::ostream& out) {
                   out << "task " << event.task
                       << " placed while already live on "
                       << "machine " << live_[event.task].machine;
                 });
        room -= demand;
        live_[event.task] = LiveTask{event.user, event.machine};
        TSF_CHAOS_COV(kPlaceOk);
#if !defined(TSF_CHAOS_COVERAGE_OFF)
        if (coverage_ != nullptr) {
          if (restarted_[event.machine]) TSF_CHAOS_COV(kPlaceAfterRestart);
          if (requeued_.count(event.task) != 0)
            TSF_CHAOS_COV(kPlaceOfRequeuedTask);
          for (std::size_t m = 0; m < up_.size(); ++m)
            if (!up_[m]) {
              TSF_CHAOS_COV(kPlaceWhilePeerDown);
              break;
            }
        }
#endif
        break;
      }

      case StreamEvent::Kind::kFinish:
      case StreamEvent::Kind::kKill:
      case StreamEvent::Kind::kFail: {
        const char* verb = event.kind == StreamEvent::Kind::kFinish ? "finish"
                           : event.kind == StreamEvent::Kind::kKill ? "kill"
                                                                    : "fail";
        const auto it = live_.find(event.task);
        if (it == live_.end()) {
          Report(CoverageBranch::kGhostTask, "ghost_task", t,
                 [&](std::ostream& out) {
                   out << verb << " of task " << event.task
                       << " that is not live";
                 });
          break;
        }
        if (it->second.machine != event.machine ||
            it->second.user != event.user)
          Report(CoverageBranch::kTaskIdentityMismatch,
                 "task_identity_mismatch", t, [&](std::ostream& out) {
                   out << verb << " of task " << event.task << " on machine "
                       << event.machine << " user " << event.user
                       << " but it is live on machine " << it->second.machine
                       << " for user " << it->second.user;
                 });
        if (event.kind == StreamEvent::Kind::kFinish && !up_[event.machine])
          Report(CoverageBranch::kFinishOnDownMachine,
                 "finish_on_down_machine", t, [&](std::ostream& out) {
                   out << "task " << event.task << " finished on down machine "
                       << event.machine;
                 });
        ResourceVector& room = free_[event.machine];
        room += view_.demand[event.user];
        const ResourceVector& cap = view_.capacity[event.machine];
        for (std::size_t r = 0; r < cap.dimension(); ++r)
          if (room[r] > cap[r] + view_.tolerance) {
            Report(CoverageBranch::kFreeCapacityOverflow,
                   "free_capacity_overflow", t, [&](std::ostream& out) {
                     out << "machine " << event.machine << " resource " << r
                         << ": free " << room[r] << " > capacity " << cap[r];
                   });
            break;
          }
        if (event.kind == StreamEvent::Kind::kFinish)
          ++finished_[event.user];
        live_.erase(it);
#if !defined(TSF_CHAOS_COVERAGE_OFF)
        if (coverage_ != nullptr) {
          switch (event.kind) {
            case StreamEvent::Kind::kFinish:
              TSF_CHAOS_COV(kFinishOk);
              if (requeued_.count(event.task) != 0)
                TSF_CHAOS_COV(kFinishOfRequeuedTask);
              break;
            case StreamEvent::Kind::kKill:
              TSF_CHAOS_COV(kKillOk);
              requeued_.insert(event.task);
              killed_on_[event.machine] = true;
              break;
            default:
              TSF_CHAOS_COV(kFailOk);
              requeued_.insert(event.task);
              break;
          }
        }
#endif
        break;
      }

      case StreamEvent::Kind::kCrash: {
        if (!up_[event.machine])
          Report(CoverageBranch::kCrashOfDownMachine,
                 "crash_of_down_machine", t, [&](std::ostream& out) {
                   out << "machine " << event.machine;
                 });
        // Every task the stream showed running here must have been killed
        // (kKill) before the crash; a survivor is a leaked task — the
        // defect InjectedBug::kLeakTaskOnCrash plants.
        for (const auto& [task, lt] : live_)
          if (lt.machine == event.machine)
            Report(CoverageBranch::kTaskSurvivedCrash, "task_survived_crash", t,
                   [&, task = task, lt = lt](std::ostream& out) {
                     out << "task " << task << " of user " << lt.user
                         << " still live on crashed machine " << event.machine;
                   });
        up_[event.machine] = false;
        TSF_CHAOS_COV(kCrashOk);
#if !defined(TSF_CHAOS_COVERAGE_OFF)
        if (coverage_ != nullptr) {
          // The kills a crash triggers precede the crash in the stream, so
          // this bit marks a crash that actually disrupted running work —
          // the interleaving the leak-class bugs need.
          if (killed_on_[event.machine]) TSF_CHAOS_COV(kCrashWithPriorKills);
          killed_on_[event.machine] = false;
        }
#endif
        break;
      }

      case StreamEvent::Kind::kRestart:
        if (up_[event.machine])
          Report(CoverageBranch::kRestartOfUpMachine,
                 "restart_of_up_machine", t, [&](std::ostream& out) {
                   out << "machine " << event.machine;
                 });
        up_[event.machine] = true;
        free_[event.machine] = view_.capacity[event.machine];
        TSF_CHAOS_COV(kRestartOk);
#if !defined(TSF_CHAOS_COVERAGE_OFF)
        restarted_[event.machine] = true;
#endif
        break;

      case StreamEvent::Kind::kDisconnect:
        if (!connected_[event.user])
          Report(CoverageBranch::kDuplicateDisconnect,
                 "duplicate_disconnect", t, [&](std::ostream& out) {
                   out << "user " << event.user;
                 });
        connected_[event.user] = false;
        TSF_CHAOS_COV(kDisconnectOk);
        break;

      case StreamEvent::Kind::kReregister:
        if (connected_[event.user])
          Report(CoverageBranch::kReregisterWhileConnected,
                 "reregister_while_connected", t, [&](std::ostream& out) {
                   out << "user " << event.user;
                 });
        connected_[event.user] = true;
        TSF_CHAOS_COV(kReregisterOk);
        break;
    }
  }

  void Finalize(double end_time) {
    index_ = stream_.size();
    for (const auto& [task, lt] : live_)
      Report(CoverageBranch::kLeakedTask, "leaked_task", end_time,
             [&, task = task, lt = lt](std::ostream& out) {
               out << "task " << task << " of user " << lt.user
                   << " still live on machine " << lt.machine
                   << " at end of stream";
             });
    for (std::size_t u = 0; u < finished_.size(); ++u)
      if (finished_[u] != view_.num_tasks[u])
        Report(CoverageBranch::kIncompleteUser, "incomplete_user", end_time,
               [&](std::ostream& out) {
                 out << "user " << u << " finished " << finished_[u] << " of "
                     << view_.num_tasks[u] << " tasks";
               });
    for (std::size_t m = 0; m < free_.size(); ++m) {
      if (!up_[m]) {
        Report(CoverageBranch::kMachineLeftDown, "machine_left_down", end_time,
               [&](std::ostream& out) {
                 out << "machine " << m << " still down at end of stream";
               });
        continue;
      }
      const ResourceVector& cap = view_.capacity[m];
      for (std::size_t r = 0; r < cap.dimension(); ++r)
        if (std::abs(free_[m][r] - cap[r]) > view_.tolerance) {
          Report(CoverageBranch::kConservation, "conservation", end_time,
                 [&](std::ostream& out) {
                   out << "machine " << m << " resource " << r << ": free "
                       << free_[m][r] << " != capacity " << cap[r]
                       << " after quiescence";
                 });
          break;
        }
    }
  }

  const ScenarioView& view_;
  const std::vector<StreamEvent>& stream_;
  std::size_t index_ = 0;
  std::vector<ResourceVector> free_;
  std::vector<bool> up_;
  std::vector<bool> arrived_;
  std::vector<bool> connected_;
  std::vector<long> finished_;
  // Ordered by task id on purpose: the crash-survivor and leaked-task sweeps
  // below iterate this map to emit violations, and violation order is part of
  // the harness's deterministic contract (repro files and shrinking diff
  // against it). An unordered_map would tie report order to the hash seed /
  // stdlib implementation.
  std::map<std::uint32_t, LiveTask> live_;
  std::vector<Violation> violations_;
#if !defined(TSF_CHAOS_COVERAGE_OFF)
  std::vector<bool> restarted_;        // machine restarted at least once
  std::vector<bool> killed_on_;        // kills since the machine's last crash
  std::set<std::uint32_t> requeued_;   // task ids seen in a kill/fail
#endif
  ChaosCoverage* coverage_ = nullptr;
};

}  // namespace

std::string ToString(const Violation& violation) {
  std::ostringstream out;
  out << "[" << violation.invariant << "] t=" << violation.time << " event #"
      << violation.event_index << ": " << violation.detail;
  return out.str();
}

std::size_t ChaosCoverage::Count() const {
  return static_cast<std::size_t>(std::popcount(bits_));
}

std::vector<Violation> CheckStream(const ScenarioView& view,
                                   const std::vector<StreamEvent>& stream,
                                   ChaosCoverage* coverage) {
  return Checker(view, stream, coverage).Run();
}

std::vector<Violation> CheckStream(const ScenarioView& view,
                                   const std::vector<StreamEvent>& stream) {
  return CheckStream(view, stream, nullptr);
}

}  // namespace tsf::chaos
