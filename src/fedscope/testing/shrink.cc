#include "fedscope/testing/shrink.h"

#include <cmath>
#include <cstdint>
#include <string>

namespace fedscope {
namespace testing {
namespace {

/// Shared shrink state: the smallest failing spec so far plus the budget.
struct Shrinker {
  CourseSpec best;
  const FailurePredicate& still_fails;
  int max_evals;
  int evals = 0;

  bool Exhausted() const { return evals >= max_evals; }

  /// Runs the predicate on Clamp(candidate); keeps it when it still fails.
  /// Candidates that clamp back onto `best` are free (no evaluation).
  bool Try(CourseSpec candidate) {
    candidate = CourseGen::Clamp(std::move(candidate));
    if (candidate == best) return false;
    if (Exhausted()) return false;
    ++evals;
    if (!still_fails(candidate)) return false;
    best = std::move(candidate);
    return true;
  }

  template <typename T>
  bool TryField(T CourseSpec::* field, T value) {
    CourseSpec candidate = best;
    candidate.*field = value;
    return Try(std::move(candidate));
  }

  /// Moves a numeric field toward `target` by bisection: first the target
  /// itself, then midpoints between target and the current failing value.
  template <typename T>
  bool BisectField(T CourseSpec::* field, T target) {
    if (best.*field == target) return false;
    if (TryField(field, target)) return true;
    bool moved = false;
    T lo = target;           // known-passing side
    T hi = best.*field;      // known-failing side
    for (int iter = 0; iter < 16 && !Exhausted(); ++iter) {
      T mid = Midpoint(lo, hi);
      if (mid == lo || mid == hi) break;
      if (TryField(field, mid)) {
        hi = best.*field;  // clamp may have adjusted the candidate
        moved = true;
      } else {
        lo = mid;
      }
    }
    return moved;
  }

  static int Midpoint(int lo, int hi) { return lo + (hi - lo) / 2; }
  static double Midpoint(double lo, double hi) {
    double mid = lo + (hi - lo) / 2.0;
    return std::abs(hi - lo) < 1e-3 ? lo : mid;
  }
};

}  // namespace

ShrinkResult ShrinkCourse(const CourseSpec& failing,
                          const FailurePredicate& still_fails,
                          const ShrinkOptions& options) {
  CourseSpec baseline;  // benign defaults; keep the failing seed
  baseline.seed = failing.seed;

  Shrinker s{CourseGen::Clamp(failing), still_fails, options.max_evals};

  // Categorical fields: either the benign default reproduces or the field
  // is load-bearing — no intermediate values to bisect.
  const struct {
    std::string CourseSpec::* field;
  } kStringFields[] = {
      {&CourseSpec::dataset},         {&CourseSpec::model},
      {&CourseSpec::strategy},        {&CourseSpec::broadcast},
      {&CourseSpec::sampler},         {&CourseSpec::aggregator},
      {&CourseSpec::personalization}, {&CourseSpec::compression},
  };
  const struct {
    bool CourseSpec::* field;
  } kBoolFields[] = {
      {&CourseSpec::collect_client_metrics},
      {&CourseSpec::dp_enable},
      {&CourseSpec::heterogeneous_fleet},
      {&CourseSpec::through_wire},
      {&CourseSpec::suppress_duplicates},
  };
  const struct {
    int CourseSpec::* field;
  } kIntFields[] = {
      {&CourseSpec::num_clients},    {&CourseSpec::pool_size},
      {&CourseSpec::hidden},         {&CourseSpec::num_groups},
      {&CourseSpec::concurrency},    {&CourseSpec::aggregation_goal},
      {&CourseSpec::staleness_tolerance},
      {&CourseSpec::min_received},   {&CourseSpec::max_round_extensions},
      {&CourseSpec::max_rounds},     {&CourseSpec::eval_interval},
      {&CourseSpec::local_steps},    {&CourseSpec::batch_size},
  };
  const struct {
    double CourseSpec::* field;
  } kDoubleFields[] = {
      {&CourseSpec::overselect_frac},
      {&CourseSpec::staleness_rho},
      {&CourseSpec::time_budget},
      {&CourseSpec::receive_deadline},
      {&CourseSpec::lr},
      {&CourseSpec::jitter_sigma},
      {&CourseSpec::trim_frac},
      {&CourseSpec::compression_keep_frac},
      {&CourseSpec::dp_noise},
      {&CourseSpec::dp_clip},
      {&CourseSpec::fault_dropout_frac},
      {&CourseSpec::fault_crash_prob},
      {&CourseSpec::fault_straggler_frac},
      {&CourseSpec::fault_straggler_delay},
      {&CourseSpec::fault_msg_loss_prob},
      {&CourseSpec::fault_msg_duplicate_prob},
      {&CourseSpec::fault_msg_delay_prob},
      {&CourseSpec::fault_msg_delay_max},
  };

  int fields_reset = 0;
  // Passes repeat until a fixpoint: resetting one field (e.g. strategy)
  // often re-opens Clamp headroom for another (e.g. fault knobs).
  for (int pass = 0; pass < 4 && !s.Exhausted(); ++pass) {
    bool changed = false;
    for (const auto& f : kStringFields) {
      if (s.best.*f.field != baseline.*f.field &&
          s.TryField(f.field, baseline.*f.field)) {
        ++fields_reset;
        changed = true;
      }
    }
    for (const auto& f : kBoolFields) {
      if (s.best.*f.field != baseline.*f.field &&
          s.TryField(f.field, baseline.*f.field)) {
        ++fields_reset;
        changed = true;
      }
    }
    for (const auto& f : kIntFields) {
      if (s.BisectField(f.field, baseline.*f.field)) {
        if (s.best.*f.field == baseline.*f.field) ++fields_reset;
        changed = true;
      }
    }
    for (const auto& f : kDoubleFields) {
      if (s.BisectField(f.field, baseline.*f.field)) {
        if (s.best.*f.field == baseline.*f.field) ++fields_reset;
        changed = true;
      }
    }
    if (!changed) break;
  }

  ShrinkResult result;
  result.spec = s.best;
  result.evals = s.evals;
  result.fields_reset = fields_reset;
  return result;
}

}  // namespace testing
}  // namespace fedscope
