#ifndef FEDSCOPE_TESTING_SHRINK_H_
#define FEDSCOPE_TESTING_SHRINK_H_

#include <functional>

#include "fedscope/testing/course_gen.h"

namespace fedscope {
namespace testing {

/// Returns true when a spec still reproduces the failure being minimized.
using FailurePredicate = std::function<bool(const CourseSpec&)>;

struct ShrinkOptions {
  /// Upper bound on predicate evaluations (each one replays a course).
  int max_evals = 200;
};

struct ShrinkResult {
  CourseSpec spec;    ///< Smallest failing spec found.
  int evals = 0;      ///< Predicate evaluations spent.
  int fields_reset = 0;  ///< Config fields moved to their benign default.
};

/// First-failure minimizer: config-field bisection toward a benign
/// baseline (`CourseSpec{}` with the failing seed). For each field of
/// SpecFields() but the seed, first try the baseline value outright; for
/// numeric fields that must stay large, bisect between the baseline and
/// the failing value. Every
/// candidate is projected through CourseGen::Clamp so the shrinker can
/// never leave the valid lattice, and candidates that clamp back to the
/// current spec are skipped. `failing` must satisfy `still_fails`.
ShrinkResult ShrinkCourse(const CourseSpec& failing,
                          const FailurePredicate& still_fails,
                          const ShrinkOptions& options = {});

}  // namespace testing
}  // namespace fedscope

#endif  // FEDSCOPE_TESTING_SHRINK_H_
