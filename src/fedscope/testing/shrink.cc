#include "fedscope/testing/shrink.h"

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>

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

  int fields_reset = 0;
  // Passes repeat until a fixpoint: resetting one field (e.g. strategy)
  // often re-opens Clamp headroom for another (e.g. fault knobs). Each
  // pass walks the field table once per type, in variant order after the
  // seed (never shrunk): strings, bools, ints, doubles. A categorical
  // field either reproduces at its benign default or is load-bearing; a
  // numeric one bisects toward its default.
  for (int pass = 0; pass < 4 && !s.Exhausted(); ++pass) {
    bool changed = false;
    constexpr size_t kTypes = std::variant_size_v<decltype(SpecField::member)>;
    for (size_t type = 1; type < kTypes; ++type) {
      for (const SpecField& f : SpecFields()) {
        if (f.member.index() != type) continue;
        std::visit(
            [&](auto field) {
              using T = std::decay_t<decltype(s.best.*field)>;
              if constexpr (std::is_same_v<T, std::string> ||
                            std::is_same_v<T, bool>) {
                if (s.best.*field != baseline.*field &&
                    s.TryField(field, baseline.*field)) {
                  ++fields_reset;
                  changed = true;
                }
              } else if constexpr (!std::is_same_v<T, uint64_t>) {
                if (s.BisectField(field, baseline.*field)) {
                  if (s.best.*field == baseline.*field) ++fields_reset;
                  changed = true;
                }
              }
            },
            f.member);
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
