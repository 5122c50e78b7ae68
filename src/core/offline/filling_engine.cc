#include "core/offline/filling_engine.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/log.h"

namespace tsf {
namespace {

// Probe cutoff that never stops a probe early.
constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

}  // namespace

ThreadPool* SharedFillingPool() {
  // Created on first use and intentionally never destroyed: worker threads
  // must outlive every caller, and teardown order at exit is unknowable.
  static ThreadPool* pool = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw <= 1) return static_cast<ThreadPool*>(nullptr);
    return new ThreadPool(hw);
  }();
  return pool;
}

FillingEngine::FillingEngine(FillingSpec spec, const FillingOptions& options)
    : spec_(std::move(spec)),
      frozen_(spec_.user_rows.size(), false),
      options_(options),
      state_(BuildState(spec_)) {}

lp::SimplexState FillingEngine::BuildState(const FillingSpec& spec) {
  TSF_CHECK_GT(spec.num_structural, 0u);
  TSF_CHECK(!spec.user_rows.empty());
  share_var_ = spec.num_structural;
  probe_var_ = share_var_ + 1;

  lp::StandardForm form(spec.num_structural + 2);
  form.SetObjectiveCoefficient(share_var_, 1.0);
  user_row_ids_.resize(spec.user_rows.size());
  for (std::size_t i = 0; i < spec.user_rows.size(); ++i) {
    TSF_CHECK(!spec.user_rows[i].empty()) << "user " << i << " has no rows";
    for (const FillingCouplingRow& row : spec.user_rows[i]) {
      TSF_CHECK_GT(row.share_coeff, 0.0);
      std::vector<std::pair<std::size_t, double>> terms = row.terms;
      terms.emplace_back(share_var_, -row.share_coeff);
      terms.emplace_back(probe_var_, 0.0);  // slot for probes, empty in rounds
      user_row_ids_[i].push_back(
          form.AddRow(terms, lp::Relation::kEqual, 0.0));
    }
  }
  for (const FillingCapacityRow& row : spec.capacity) {
    if (row.terms.empty()) continue;  // no eligible user consumes this slot
    form.AddRow(row.terms, lp::Relation::kLessEqual, row.capacity);
  }
  // Last row: ties in the ratio test go to earlier rows, so the level row
  // never steers a round solve (its surplus just mirrors s).
  level_row_ = form.AddRow({{share_var_, 1.0}}, lp::Relation::kGreaterEqual,
                           0.0);
  form.Finalize();
  return lp::SimplexState(std::move(form));
}

void FillingEngine::FreezeInState(lp::SimplexState& state, std::size_t user,
                                  double floor) const {
  for (std::size_t k = 0; k < user_row_ids_[user].size(); ++k) {
    const std::size_t row = user_row_ids_[user][k];
    state.SetCoefficient(row, share_var_, 0.0);
    state.RelaxEquality(row, spec_.user_rows[user][k].floor_fraction * floor);
  }
}

bool FillingEngine::SolveState(lp::SimplexState& state, double* share,
                               std::vector<double>* x) const {
  const auto extract = [&](const lp::Solution& solution) {
    if (!solution.optimal()) return false;
    *share = solution.objective;
    if (x != nullptr)
      x->assign(solution.x.begin(),
                solution.x.begin() +
                    static_cast<std::ptrdiff_t>(spec_.num_structural));
    return true;
  };
  if (options_.use_dense_engine) {
    // Executable-spec mode: the exact same mutated program, solved by the
    // dense tableau path every time.
    return extract(state.form().ToDenseProblem().Solve());
  }
  return extract(state.Solve());
}

bool FillingEngine::SolveRound(double* share, std::vector<double>* x) {
  TSF_CHECK(share != nullptr);
  TSF_TRACE_SCOPE("filling", "SolveRound");
  round_solved_ = SolveState(state_, share, x);
  round_share_ = *share;
  return round_solved_;
}

void FillingEngine::FreezeUser(std::size_t j, double floor) {
  TSF_CHECK_LT(j, num_users());
  TSF_CHECK(!frozen_[j]) << "user " << j << " frozen twice";
  frozen_[j] = true;
  round_solved_ = false;
  FreezeInState(state_, j, floor);
}

double FillingEngine::ProbeUser(std::size_t j, double cutoff) const {
  TSF_TRACE_SCOPE("filling", "FreezeProbe");
  TSF_COUNTER_ADD("filling.probes", 1);
  // s >= round share keeps every other active user at or above its round
  // total; t carries j alone above the level. Only the rhs of the level row,
  // the nonbasic column t and the costs change, so B^-1 is reused as is.
  lp::SimplexState probe = state_;
  probe.SetRhs(level_row_, round_share_);
  for (std::size_t k = 0; k < user_row_ids_[j].size(); ++k)
    probe.SetCoefficient(user_row_ids_[j][k], probe_var_,
                         -spec_.user_rows[j][k].share_coeff);
  probe.SetObjectiveCoefficient(probe_var_, 1.0);

  if (cutoff < kNoCutoff && !options_.use_dense_engine &&
      probe.ObjectiveExceeds(cutoff)) {
    // A certified feasible point beats the cutoff: j is not saturated, and
    // its exact max share is not needed.
    TSF_COUNTER_ADD("filling.probe_cutoffs", 1);
    return std::numeric_limits<double>::infinity();
  }
  double share = 0.0;
  TSF_CHECK(SolveState(probe, &share, nullptr))
      << "freeze-probe LP infeasible — floors exceed capacity?";
  return share;
}

void FillingEngine::RunProbes(const std::vector<std::size_t>& targets,
                              double cutoff,
                              std::vector<double>* value) const {
  TSF_CHECK(round_solved_) << "probes need a freshly solved round";
  value->assign(num_users(), 0.0);
  // Each probe is a pure function of the solved round state and its own
  // user, writing only its own slot: parallel execution is bit-identical to
  // the serial loop by construction.
  const auto run_probe = [&](std::size_t index) {
    const std::size_t j = targets[index];
    (*value)[j] = ProbeUser(j, cutoff);
  };
  ThreadPool* pool = options_.serial_probes ? nullptr : options_.pool;
  if (pool != nullptr && pool->thread_count() > 1 && targets.size() > 1) {
    pool->ParallelFor(targets.size(), run_probe);
  } else {
    for (std::size_t index = 0; index < targets.size(); ++index)
      run_probe(index);
  }
}

std::vector<std::size_t> FillingEngine::SaturatedUsers(double share_eps) {
  TSF_TRACE_SCOPE("filling", "SaturatedUsers");
  std::vector<std::size_t> targets;
  for (std::size_t j = 0; j < num_users(); ++j)
    if (!frozen_[j]) targets.push_back(j);
  TSF_CHECK(!targets.empty()) << "no active user to probe";

  // An active user j saturates if, holding everyone else at the round
  // level, j's share cannot rise above it (up to the relative tolerance).
  const double cutoff =
      round_share_ + share_eps * std::max(1.0, round_share_);
  std::vector<double> max_share;
  RunProbes(targets, cutoff, &max_share);
  std::vector<std::size_t> saturated;
  for (const std::size_t j : targets)
    if (max_share[j] <= cutoff) saturated.push_back(j);
  if (!saturated.empty()) return saturated;

  // Exact arithmetic guarantees at least one saturated user per round; if
  // round-off hid it, freeze the numerically closest user so the loop
  // always progresses. Early-stopped probes only bound their gap, so the
  // probes run again to optimality to find that user.
  TSF_COUNTER_ADD("filling.freeze_fallbacks", 1);
  RunProbes(targets, kNoCutoff, &max_share);
  double closest_gap = std::numeric_limits<double>::infinity();
  std::size_t closest = num_users();
  for (const std::size_t j : targets) {
    const double gap = max_share[j] - round_share_;
    if (gap < closest_gap) {
      closest_gap = gap;
      closest = j;
    }
  }
  TSF_CHECK_LT(closest, num_users());
  TSF_LOG(DEBUG) << "freeze fallback: user " << closest << " gap "
                 << closest_gap;
  return {closest};
}

void FillingEngine::ProbeMaxShares(const std::vector<bool>& probe,
                                   std::vector<double>* max_share) {
  TSF_CHECK_EQ(probe.size(), num_users());
  TSF_CHECK(max_share != nullptr);
  TSF_TRACE_SCOPE("filling", "ProbeMaxShares");
  std::vector<std::size_t> targets;
  for (std::size_t j = 0; j < num_users(); ++j) {
    if (!probe[j]) continue;
    TSF_CHECK(!frozen_[j]) << "probing frozen user " << j;
    targets.push_back(j);
  }
  RunProbes(targets, kNoCutoff, max_share);
}

}  // namespace tsf
