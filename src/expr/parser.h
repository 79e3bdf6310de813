// Text parser for set expressions.
//
// Grammar (left-associative; '&' binds tighter than '|' and '-'):
//
//   expr    := term (('|' | '+' | '-') term)*
//   term    := primary (('&') primary)*
//   primary := IDENT | '(' expr ')'
//   IDENT   := [A-Za-z_][A-Za-z0-9_]*
//
// '|' and '+' both denote union, '&' intersection, '-' difference.
// Examples: "A & B", "(A - B) & C", "R1 & R2 - R3".
//
// Parentheses nest at most 256 deep and the tree is at most 1024 levels
// tall (a chain of n terms is n - 1 levels); past either cap the parse
// fails with ParseErrorCode::kTooDeep.

#ifndef SETSKETCH_EXPR_PARSER_H_
#define SETSKETCH_EXPR_PARSER_H_

#include <string>

#include "expr/expression.h"

namespace setsketch {

/// Machine-readable classification of a parse failure. Hostile or
/// malformed query text (empty frames, unbalanced parens, junk bytes,
/// pathological nesting) must map to one of these — never a crash.
enum class ParseErrorCode {
  kNone = 0,          ///< Parse succeeded.
  kEmptyInput,        ///< Empty or whitespace-only text.
  kUnbalancedParens,  ///< Missing ')' or stray ')'.
  kUnexpectedToken,   ///< Operator/operand out of place or bad character.
  kTrailingInput,     ///< Well-formed prefix followed by junk.
  kTooDeep,           ///< Parentheses nested past the recursion cap, or a
                      ///< tree taller than the height cap.
};

/// Outcome of parsing.
struct ParseResult {
  ExprPtr expression;  ///< Null on failure.
  std::string error;   ///< Human-readable message with position on failure.
  ParseErrorCode code = ParseErrorCode::kNone;  ///< Typed failure cause.
  bool ok() const { return expression != nullptr; }
};

/// Parses `text` into an expression tree.
ParseResult ParseExpression(const std::string& text);

}  // namespace setsketch

#endif  // SETSKETCH_EXPR_PARSER_H_
