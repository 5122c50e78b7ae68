// Shared warm-started LP engine for progressive filling (Algorithm 1).
//
// Both the single-class engine (progressive_filling.cc) and multi-class TSF
// (multiclass.cc) run the same loop: one round LP that raises every active
// user's share s equally, then one FREEZE probe LP per active user. All of
// those programs share one constraint matrix and differ only in which users
// are coupled to s, in the floor right-hand sides, and in one probe column —
// exactly the shape-preserving mutations lp::SimplexState re-solves warm
// (see lp/revised.h). FillingEngine owns that mapping:
//
//   * the StandardForm is built ONCE per filling run: for every user a block
//     of equality "coupling rows" (task totals = share_coeff * s), the
//     capacity rows, one level row `s >= 0`, and one probe column t with a
//     zero-valued slot in every coupling row and cost 0;
//   * freezing user j rewrites its rows in place — the s coefficient drops
//     to zero and the equality relaxes to >= floor. s is basic, so the next
//     round LP usually cannot reuse the old basis and solves cold;
//   * a FREEZE probe for user j clones the solved round state, raises the
//     level row to `s >= round share`, writes -share_coeff into t's slots
//     in j's rows (j's tasks = share_coeff * (s + t)) and gives t cost 1.
//     Its optimum s + t is the classic probe value — the max share j reaches
//     while every other active user keeps its round total — because other
//     users can always be cut back to their floors. None of the three edits
//     touches a basic column (t's column is all zeros in rounds, so it never
//     enters the basis; costs and rhs are not part of B), so B^-1 is
//     unchanged and stays nonsingular, the round optimum stays primal
//     feasible (the level row's surplus sits at zero), and phase 2 starts
//     right there: no phase 1, rank-one update or refactor.
//
// The freeze test only asks whether j can rise above the round level, so
// SaturatedUsers() stops each probe (lp::SimplexState::ObjectiveExceeds) at
// the first certified point above the freeze threshold; only saturated users
// are solved to optimality.
//
// Probes are pure functions of (solved round state, probed user): each runs
// on its own clone and writes its own output slot, so fanning them out over
// ThreadPool::ParallelFor and reducing in user order yields freeze decisions
// bit-identical to the serial loop.
//
// Telemetry (macro-gated): `filling.probes` (probe LPs run),
// `filling.probe_cutoffs` (probes answered by the early stop, their user
// shown unsaturated without solving to optimality),
// `filling.freeze_fallbacks` (rounds where no probe saturated and the
// closest user was frozen instead).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/revised.h"
#include "util/thread_pool.h"

namespace tsf {

// Tuning knobs threaded from the public solver entry points down to the
// engine. The defaults reproduce the serial reference behavior.
struct FillingOptions {
  // Pool for fanning FREEZE probes out. nullptr means serial probes. Do NOT
  // pass a pool whose workers may themselves be running the caller:
  // ParallelFor waits on the pool and would deadlock (see thread_pool.h);
  // top-level callers can use SharedFillingPool().
  ThreadPool* pool = nullptr;

  // Force serial probes even when `pool` is set (used by the determinism
  // tests to produce the reference ordering).
  bool serial_probes = false;

  // Solve every LP with the dense tableau solver instead of the warm
  // revised path — the executable-spec mode differential tests diff against.
  bool use_dense_engine = false;
};

// Lazily-created process-wide pool for probe fan-out; nullptr on single-core
// hosts where a pool would only add synchronization overhead. Only safe from
// threads that are not themselves SharedFillingPool() workers.
ThreadPool* SharedFillingPool();

// One coupling row of a user: while the user is active the row reads
// `terms · x = share_coeff * s`; once frozen at total floor F it becomes
// `terms · x >= floor_fraction * F`. Single-class users have one row with
// floor_fraction 1; a multi-class user has one row per class with
// floor_fraction mix_ic (the class's slice of the total).
struct FillingCouplingRow {
  std::vector<std::pair<std::size_t, double>> terms;
  double share_coeff = 1.0;
  double floor_fraction = 1.0;
};

struct FillingCapacityRow {
  std::vector<std::pair<std::size_t, double>> terms;
  double capacity = 0.0;
};

struct FillingSpec {
  std::size_t num_structural = 0;                        // variables besides s
  std::vector<std::vector<FillingCouplingRow>> user_rows; // per user
  std::vector<FillingCapacityRow> capacity;
};

class FillingEngine {
 public:
  // Relative tolerance of the freeze test: an active user saturates when
  // its probe cannot exceed round_share + kShareEps * max(1, round_share).
  static constexpr double kShareEps = 1e-7;

  // share_coeff must be strictly positive for every coupling row.
  FillingEngine(FillingSpec spec, const FillingOptions& options);

  std::size_t num_users() const { return user_row_ids_.size(); }

  // Maximizes s under the current active/frozen pattern. Returns false when
  // the program is infeasible; otherwise stores the share level and, if x is
  // non-null, the structural primal values (x[v] for v < num_structural).
  bool SolveRound(double* share, std::vector<double>* x);

  // Permanently freezes user j at total `floor`. Affects every later
  // SolveRound, SaturatedUsers and ProbeMaxShares call.
  void FreezeUser(std::size_t j, double floor);

  // The FREEZE step: probes every active (not frozen) user and returns, in
  // index order, those whose max share cannot exceed the freeze threshold
  // (see kShareEps; `share_eps` overrides it, which is how tests reach the
  // fallback). If round-off hides every saturated user, returns the single
  // user with the smallest gap above the round level, found by re-running
  // the probes to optimality, so that the filling loop always progresses.
  // Call only right after a successful SolveRound. Deterministic: parallel
  // and serial probes agree bitwise.
  std::vector<std::size_t> SaturatedUsers(double share_eps = kShareEps);

  // For every user j with probe[j] set (all active), computes the max share
  // j alone can reach while every other active user keeps at least its
  // total of the solved round and frozen users keep their floors. Probes
  // run to optimality. Call only right after a successful SolveRound.
  // Results land in (*max_share)[j]; non-probed slots are 0.
  void ProbeMaxShares(const std::vector<bool>& probe,
                      std::vector<double>* max_share);

  // LP re-solve counters of the persistent round state (probe clones
  // accumulate their own and are discarded).
  const lp::ResolveStats& stats() const { return state_.stats(); }

 private:
  lp::SimplexState BuildState(const FillingSpec& spec);
  void FreezeInState(lp::SimplexState& state, std::size_t user,
                     double floor) const;
  bool SolveState(lp::SimplexState& state, double* share,
                  std::vector<double>* x) const;
  // Probes every user in `targets` into (*value)[j]: its max share, or +inf
  // once a finite `cutoff` is proven exceeded (the probe stops there).
  void RunProbes(const std::vector<std::size_t>& targets, double cutoff,
                 std::vector<double>* value) const;
  double ProbeUser(std::size_t j, double cutoff) const;

  FillingSpec spec_;
  std::vector<std::vector<std::size_t>> user_row_ids_;  // form rows per user
  std::size_t share_var_ = 0;
  std::size_t probe_var_ = 0;  // t: j's extra share in a probe
  std::size_t level_row_ = 0;  // s >= level (0 in rounds)
  std::vector<bool> frozen_;
  FillingOptions options_;
  lp::SimplexState state_;
  bool round_solved_ = false;  // state_ holds an unmutated round optimum
  double round_share_ = 0.0;
};

}  // namespace tsf
