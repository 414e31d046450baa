#include "estimate/estimator.h"

#include <cstdio>

namespace xcluster {

bool PredicateKindMatchesType(ValuePredicate::Kind kind, ValueType type) {
  switch (kind) {
    case ValuePredicate::Kind::kRange:
      return type == ValueType::kNumeric;
    case ValuePredicate::Kind::kContains:
      return type == ValueType::kString;
    case ValuePredicate::Kind::kFtContains:
    case ValuePredicate::Kind::kFtAny:
    case ValuePredicate::Kind::kFtSimilar:
      return type == ValueType::kText;
  }
  return false;
}

std::string EstimateExplanation::ToString() const {
  char line[160];
  std::snprintf(line, sizeof(line), "estimate: %.6g\n", selectivity);
  std::string out = line;
  if (!vars.empty()) {
    std::snprintf(line, sizeof(line), "  %-28s %14s %12s\n", "var",
                  "expected", "sigma");
    out += line;
  }
  for (const VarStats& var : vars) {
    const std::string name = "q" + std::to_string(var.var) + " " +
                             (var.step.empty() ? "(root)" : var.step);
    std::snprintf(line, sizeof(line), "  %-28s %14.6g %12.6g\n", name.c_str(),
                  var.expected_bindings, var.predicate_selectivity);
    out += line;
  }
  return out;
}

}  // namespace xcluster
