#include "expr/parser.h"

#include <algorithm>
#include <cctype>
#include <string>

namespace setsketch {

namespace {

// Hostile inputs can nest parentheses arbitrarily deep; cap the
// recursive-descent depth well below any stack limit so the parser fails
// with a typed error instead of overflowing.
constexpr int kMaxDepth = 256;

// An unparenthesized chain ("A - B | C - B | ...") parses iteratively
// into a left-deep tree, and every later walk over a tree (canonical plan,
// ToString, the destructor chain) recurses once per level. The parser
// refuses a tree taller than this while it builds it, so no deeper tree
// ever exists.
constexpr int kMaxHeight = 1024;

// Recursive-descent parser over a character cursor.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ParseResult Run() {
    ParseResult result;
    SkipSpace();
    if (pos_ == text_.size()) {
      result.error = Message("empty expression");
      result.code = ParseErrorCode::kEmptyInput;
      return result;
    }
    int height = 0;
    ExprPtr expr = ParseExpr(0, &height);
    if (!expr) {
      result.error = error_;
      result.code = code_;
      return result;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      const char c = text_[pos_];
      result.error =
          Message("unexpected character '" + std::string(1, c) + "'");
      // A stray ')' here means the input closed more groups than it
      // opened; everything else is trailing junk after a valid prefix.
      result.code = c == ')' ? ParseErrorCode::kUnbalancedParens
                             : ParseErrorCode::kTrailingInput;
      return result;
    }
    result.expression = std::move(expr);
    return result;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string Message(const std::string& what) const {
    return "parse error at position " + std::to_string(pos_) + ": " + what;
  }

  bool Fail(ParseErrorCode code, const std::string& what) {
    if (error_.empty()) {
      error_ = Message(what);
      code_ = code;
    }
    return false;
  }

  // The height of a node joining subtrees of heights `left` and `right`;
  // false (and a kTooDeep failure) past kMaxHeight.
  bool Join(int left, int right, int* height) {
    *height = std::max(left, right) + 1;
    if (*height <= kMaxHeight) return true;
    return Fail(ParseErrorCode::kTooDeep, "expression tree deeper than " +
                                              std::to_string(kMaxHeight) +
                                              " levels");
  }

  // expr := term (('|' | '+' | '-') term)*
  // Each Parse* sets *height to the height of the tree it returns.
  ExprPtr ParseExpr(int depth, int* height) {
    ExprPtr left = ParseTerm(depth, height);
    if (!left) return nullptr;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size()) return left;
      const char op = text_[pos_];
      if (op != '|' && op != '+' && op != '-') return left;
      ++pos_;
      int right_height = 0;
      ExprPtr right = ParseTerm(depth, &right_height);
      if (!right || !Join(*height, right_height, height)) return nullptr;
      left = (op == '-') ? Expression::Difference(std::move(left),
                                                  std::move(right))
                         : Expression::Union(std::move(left),
                                             std::move(right));
    }
  }

  // term := primary ('&' primary)*
  ExprPtr ParseTerm(int depth, int* height) {
    ExprPtr left = ParsePrimary(depth, height);
    if (!left) return nullptr;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '&') return left;
      ++pos_;
      int right_height = 0;
      ExprPtr right = ParsePrimary(depth, &right_height);
      if (!right || !Join(*height, right_height, height)) return nullptr;
      left = Expression::Intersect(std::move(left), std::move(right));
    }
  }

  // primary := IDENT | '(' expr ')'
  ExprPtr ParsePrimary(int depth, int* height) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      Fail(ParseErrorCode::kUnexpectedToken, "expected stream name or '('");
      return nullptr;
    }
    const char c = text_[pos_];
    if (c == '(') {
      if (depth >= kMaxDepth) {
        Fail(ParseErrorCode::kTooDeep, "expression nested too deeply");
        return nullptr;
      }
      ++pos_;
      ExprPtr inner = ParseExpr(depth + 1, height);
      if (!inner) return nullptr;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        Fail(ParseErrorCode::kUnbalancedParens, "expected ')'");
        return nullptr;
      }
      ++pos_;
      return inner;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      *height = 0;
      return Expression::Stream(text_.substr(start, pos_ - start));
    }
    Fail(ParseErrorCode::kUnexpectedToken,
         "expected stream name or '(', got '" + std::string(1, c) + "'");
    return nullptr;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
  ParseErrorCode code_ = ParseErrorCode::kNone;
};

}  // namespace

ParseResult ParseExpression(const std::string& text) {
  return Parser(text).Run();
}

}  // namespace setsketch
