// Revised simplex with explicit basis state and warm-start re-solve.
//
// SimplexState pairs a StandardForm with the factorized state of its last
// solve: the basis (which column is basic in each row), a dense inverse of
// the basis matrix, and the basic variable values. Re-solving after a
// shape-preserving mutation is then incremental:
//
//   * rhs change / equality relaxation — the basis matrix is untouched; the
//     basic values are refreshed with one B^-1 b product (O(m^2));
//   * coefficient change in a nonbasic column — free: B^-1 is unaffected;
//   * coefficient change in a basic column — a rank-one Sherman-Morrison
//     update of B^-1 (O(m^2) per changed column);
//   * objective coefficient change — free: costs are not part of B.
//
// If the refreshed basic values are still feasible, phase 1 is skipped
// entirely and phase 2 re-optimizes from the previous optimum — always the
// case for progressive filling's FREEZE probes, which change only an rhs, a
// nonbasic column and the costs of the round LP they branch off. Anything the warm path cannot certify (a
// near-singular rank-one update, an infeasible warm basis, a banned column
// stuck basic at a nonzero level, iteration blowup) falls back: first to a
// from-scratch two-phase revised solve, and as a last resort to the dense
// tableau solver in simplex.h, which doubles as the executable spec in the
// differential tests.
//
// Threshold questions ("can the objective exceed T?") need no optimum:
// ObjectiveExceeds() runs the same solve but stops phase 2 at the first
// basis whose values pass the feasibility certificate with objective > T.
//
// Telemetry (all macro-gated, see telemetry/telemetry.h): `lp.iterations`,
// `lp.warm_hits`, `lp.phase1_skipped`, `lp.cold_solves`,
// `lp.warm_fallbacks`, `lp.dense_fallbacks`. The probe-level counters built
// on ObjectiveExceeds — `filling.probe_cutoffs` (early answers) and
// `filling.freeze_fallbacks` — are kept by core/offline/filling_engine.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "lp/standard_form.h"

namespace tsf::lp {

// Counters for one SimplexState (process-wide totals go to telemetry).
struct ResolveStats {
  std::uint64_t solves = 0;
  std::uint64_t warm_solves = 0;   // phase 1 skipped, prior basis reused
  std::uint64_t cold_solves = 0;   // full two-phase revised solve
  std::uint64_t dense_fallbacks = 0;
  std::uint64_t iterations = 0;    // simplex pivots across all solves
};

class SimplexState {
 public:
  // Takes ownership of a finalized form. Copyable: cloning a solved state
  // is how FREEZE probes branch off a round LP without re-solving it.
  explicit SimplexState(StandardForm form);

  const StandardForm& form() const { return form_; }

  // Shape-preserving mutations, forwarded to the form with the bookkeeping
  // the warm path needs. Cheap; the actual re-solve happens in Solve().
  void SetRhs(std::size_t row, double rhs);
  void RelaxEquality(std::size_t row, double rhs);
  void SetCoefficient(std::size_t row, std::size_t variable, double value);
  // Costs never enter B, so an objective change keeps the basis and its
  // primal feasibility; only phase 2 re-prices.
  void SetObjectiveCoefficient(std::size_t variable, double value);

  // Solves (or incrementally re-solves) the current program. The returned
  // reference stays valid until the next mutation or Solve call.
  const Solution& Solve();

  // Early-stop query: does the program have a feasible point with objective
  // > target? Solves like Solve(), except that phase 2 stops at the first
  // basis whose values pass the feasibility certificate Solve() applies to
  // an optimum and whose objective exceeds `target`; the answer is then
  // true without reaching the optimum. An unbounded program answers true.
  // Otherwise (infeasible, or a certified optimum <= target) the answer is
  // false and Solve() returns that result without re-solving. After a true
  // answer, Solve() resumes phase 2 from the stopping point.
  bool ObjectiveExceeds(double target);

  const ResolveStats& stats() const { return stats_; }

 private:
  enum class IterateResult { kOptimal, kUnbounded, kStalled, kAboveTarget };

  // Column id space: [0, n) structural, [n, n+m) logical slack/surplus,
  // [n+m, n+2m) artificial (implicit +/- e_row columns, phase 1 only).
  std::size_t SlackCol(std::size_t row) const;
  std::size_t ArtificialCol(std::size_t row) const;
  bool IsArtificial(std::size_t col) const;
  bool ColumnAllowed(std::size_t col, bool phase1) const;
  bool IsBannedBasic(std::size_t col) const;
  double ColumnCost(std::size_t col, bool phase1) const;

  // d := B^-1 * (column `col` of the full matrix).
  void Ftran(std::size_t col, std::vector<double>& d) const;
  void Pivot(std::size_t leaving_row, std::size_t entering,
             const std::vector<double>& d);
  IterateResult Iterate(bool phase1);

  void ComputeBasicValues();        // xb_ = binv_ * rhs
  bool BasicValuesFeasible() const; // xb_ within tolerance, no banned basics up
  double BasicObjective() const;    // c_B . max(xb_, 0), as ExtractSolution
  bool CertifiedAboveTarget() const;  // early-stop test of ObjectiveExceeds
  bool Refactor();                  // rebuild binv_ from basis_; false if singular
  bool ApplyPendingColumnUpdates(); // Sherman-Morrison; false if refactor failed
  bool WarmSolve();                 // false => caller must cold-solve
  void ColdSolve();
  void DenseFallback();
  void ExtractSolution();

  StandardForm form_;
  Solution solution_;
  bool solution_valid_ = false;
  bool dirty_ = true;       // form mutated since last Solve
  bool state_valid_ = false;
  // Phase 2 stops above this objective (ObjectiveExceeds); +inf otherwise.
  double stop_above_ = std::numeric_limits<double>::infinity();
  bool stopped_above_ = false;  // the last solve ended at a kAboveTarget stop

  std::vector<std::size_t> basis_;  // column id basic in each row
  std::vector<double> binv_;        // m*m, row-major
  std::vector<double> xb_;          // basic variable values, B^-1 b
  std::vector<int> art_sign_;       // artificial column signs (+/- e_row)
  std::vector<bool> is_basic_;      // by column id, structural + slack only

  // Structural columns touched since the last solve, with the value each
  // touched slot held at solve time (to form Sherman-Morrison deltas).
  struct PendingColumn {
    std::size_t variable;
    std::vector<std::pair<std::size_t, double>> old_values;  // (row, value)
  };
  std::vector<PendingColumn> pending_;

  ResolveStats stats_;
};

}  // namespace tsf::lp
