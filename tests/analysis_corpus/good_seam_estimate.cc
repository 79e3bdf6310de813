// Good: the estimator's own file is exempt — its bank overload wraps the
// group overload, which is where the seam ends.
// analyze-as: src/core/set_expression_estimator.cc
// expect-clean

#include "core/set_expression_estimator.h"

namespace setsketch {

double EstimateOverBankForTest(const SetExpression& expression,
                               const SketchBank& bank,
                               const WitnessOptions& witness) {
  return EstimateSetExpression(expression, bank, witness);
}

}  // namespace setsketch
