#include "estimate/estimator.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

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
    // A step label has no length bound, so the name column is appended
    // as a string, padded to 28 columns like "%-28s"; only the two
    // numbers go through the fixed buffer.
    const size_t name_begin = out.size() + 2;
    out += "  q";
    out += std::to_string(var.var);
    out += ' ';
    out += var.step.empty() ? std::string_view("(root)")
                            : std::string_view(var.step);
    out.resize(std::max(out.size(), name_begin + 28), ' ');
    std::snprintf(line, sizeof(line), " %14.6g %12.6g\n",
                  var.expected_bindings, var.predicate_selectivity);
    out += line;
  }
  return out;
}

}  // namespace xcluster
