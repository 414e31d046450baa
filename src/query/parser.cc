#include "query/parser.h"

#include <cctype>
#include <cstdlib>

namespace xcluster {

namespace {

// Local variant of the return-if-error macro for Result-returning callers.
#define XC_RETURN_IF_ERROR_R(expr)       \
  do {                                   \
    ::xcluster::Status _st = (expr);     \
    if (!_st.ok()) return _st;           \
  } while (0)

/// The most query variables a parse reserves up front (see VarsToReserve).
constexpr size_t kMaxReservedVars = 16;

class TwigParser {
 public:
  explicit TwigParser(std::string_view input) : in_(input) {}

  Result<TwigQuery> Run() {
    TwigQuery query;
    query.ReserveVars(VarsToReserve());
    XC_RETURN_IF_ERROR_R(ParsePath(&query, 0));
    SkipSpace();
    if (!eof()) {
      return Status::InvalidArgument("trailing input at byte " +
                                     std::to_string(pos_));
    }
    if (query.size() == 1) {
      return Status::InvalidArgument("query has no steps");
    }
    return query;
  }

 private:
  /// The root plus one variable per location step, each of which starts
  /// with a run of '/' ("/" or "//"). A quoted argument's slashes, or text
  /// that fails to parse, only over-count, so the scan stops at
  /// kMaxReservedVars: the input cannot size the reservation, and a longer
  /// query grows the array past it.
  size_t VarsToReserve() const {
    size_t vars = 1;
    for (size_t i = 0; i < in_.size() && vars < kMaxReservedVars; ++i) {
      if (in_[i] == '/' && (i == 0 || in_[i - 1] != '/')) ++vars;
    }
    return vars;
  }

  bool eof() const { return pos_ >= in_.size(); }
  char peek() const { return in_[pos_]; }

  void SkipSpace() {
    while (!eof() && std::isspace(static_cast<unsigned char>(peek()))) ++pos_;
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (in_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  Status ParsePath(TwigQuery* query, QueryVarId anchor) {
    QueryVarId current = anchor;
    bool any = false;
    for (;;) {
      SkipSpace();
      TwigStep step;
      if (Consume("//")) {
        step.axis = TwigStep::Axis::kDescendant;
      } else if (Consume("/")) {
        step.axis = TwigStep::Axis::kChild;
      } else {
        break;
      }
      SkipSpace();
      if (Consume("*")) {
        step.wildcard = true;
      } else {
        std::string name = ParseName();
        if (name.empty()) {
          return Status::InvalidArgument("expected name or '*' at byte " +
                                         std::to_string(pos_));
        }
        step.label = std::move(name);
      }
      current = query->AddVar(current, std::move(step));
      any = true;
      XC_RETURN_IF_ERROR_R(ParsePredicates(query, current));
    }
    if (!any) {
      return Status::InvalidArgument("expected '/' or '//' at byte " +
                                     std::to_string(pos_));
    }
    return Status::OK();
  }

  Status ParsePredicates(TwigQuery* query, QueryVarId var) {
    for (;;) {
      SkipSpace();
      if (!Consume("[")) return Status::OK();
      SkipSpace();
      if (!eof() && peek() == '/') {
        XC_RETURN_IF_ERROR_R(ParsePath(query, var));
      } else {
        XC_RETURN_IF_ERROR_R(ParseValuePredicate(query, var));
      }
      if (!Consume("]")) {
        return Status::InvalidArgument("expected ']' at byte " +
                                       std::to_string(pos_));
      }
    }
  }

  Status ParseValuePredicate(TwigQuery* query, QueryVarId var) {
    std::string name = ParseName();
    if (!Consume("(")) {
      return Status::InvalidArgument("expected '(' after predicate name '" +
                                     name + "'");
    }
    if (name == "range") {
      Result<int64_t> lo = ParseInt();
      if (!lo.ok()) return lo.status();
      if (!Consume(",")) {
        return Status::InvalidArgument("range needs two arguments");
      }
      Result<int64_t> hi = ParseInt();
      if (!hi.ok()) return hi.status();
      if (!Consume(")")) return Status::InvalidArgument("expected ')'");
      query->AddPredicate(var, ValuePredicate::Range(lo.value(), hi.value()));
      return Status::OK();
    }
    if (name == "contains") {
      Result<std::string> arg = ParseArg();
      if (!arg.ok()) return arg.status();
      if (!Consume(")")) return Status::InvalidArgument("expected ')'");
      query->AddPredicate(var, ValuePredicate::Contains(arg.value()));
      return Status::OK();
    }
    if (name == "ftsimilar") {
      Result<int64_t> percent = ParseInt();
      if (!percent.ok()) return percent.status();
      if (percent.value() < 0 || percent.value() > 100) {
        return Status::InvalidArgument(
            "ftsimilar threshold must be in [0, 100]");
      }
      std::vector<std::string> terms;
      while (Consume(",")) {
        Result<std::string> arg = ParseArg();
        if (!arg.ok()) return arg.status();
        terms.push_back(arg.value());
      }
      if (!Consume(")")) return Status::InvalidArgument("expected ')'");
      if (terms.empty()) {
        return Status::InvalidArgument("ftsimilar needs at least one term");
      }
      query->AddPredicate(
          var, ValuePredicate::FtSimilar(percent.value(), std::move(terms)));
      return Status::OK();
    }
    if (name == "ftcontains" || name == "ftany") {
      std::vector<std::string> terms;
      for (;;) {
        Result<std::string> arg = ParseArg();
        if (!arg.ok()) return arg.status();
        terms.push_back(arg.value());
        if (!Consume(",")) break;
      }
      if (!Consume(")")) return Status::InvalidArgument("expected ')'");
      if (terms.empty()) {
        return Status::InvalidArgument(name + " needs at least one term");
      }
      query->AddPredicate(var,
                          name == "ftcontains"
                              ? ValuePredicate::FtContains(std::move(terms))
                              : ValuePredicate::FtAny(std::move(terms)));
      return Status::OK();
    }
    return Status::InvalidArgument("unknown predicate '" + name + "'");
  }

  std::string ParseName() {
    SkipSpace();
    size_t start = pos_;
    while (!eof()) {
      char c = peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '@' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    return std::string(in_.substr(start, pos_ - start));
  }

  Result<int64_t> ParseInt() {
    SkipSpace();
    size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (pos_ == start) {
      return Status::InvalidArgument("expected integer at byte " +
                                     std::to_string(pos_));
    }
    return static_cast<int64_t>(
        std::strtoll(std::string(in_.substr(start, pos_ - start)).c_str(),
                     nullptr, 10));
  }

  Result<std::string> ParseArg() {
    SkipSpace();
    if (eof()) return Status::InvalidArgument("expected argument");
    if (peek() == '"') {
      ++pos_;
      size_t start = pos_;
      while (!eof() && peek() != '"') ++pos_;
      if (eof()) return Status::InvalidArgument("unterminated string");
      std::string out(in_.substr(start, pos_ - start));
      ++pos_;
      return out;
    }
    size_t start = pos_;
    while (!eof() && peek() != ',' && peek() != ')' &&
           !std::isspace(static_cast<unsigned char>(peek()))) {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("empty argument");
    return std::string(in_.substr(start, pos_ - start));
  }

  std::string_view in_;
  size_t pos_ = 0;
};

#undef XC_RETURN_IF_ERROR_R

}  // namespace

Result<TwigQuery> ParseTwig(std::string_view input) {
  return TwigParser(input).Run();
}

}  // namespace xcluster
