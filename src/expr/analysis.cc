#include "expr/analysis.h"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>

namespace setsketch {

bool StructurallyEqual(const Expression& a, const Expression& b) {
  if (a.kind() != b.kind()) return false;
  if (a.kind() == Expression::Kind::kStream) return a.name() == b.name();
  return StructurallyEqual(*a.left(), *b.left()) &&
         StructurallyEqual(*a.right(), *b.right());
}

namespace {

bool Subset(const ExprPtr& a, const ExprPtr& b) {
  return a && b && ProvablySubset(*a, *b);
}

// Simplifies bottom-up; nullptr encodes the empty set.
ExprPtr SimplifyImpl(const ExprPtr& e) {
  if (e->kind() == Expression::Kind::kStream) return e;
  ExprPtr l = SimplifyImpl(e->left());
  ExprPtr r = SimplifyImpl(e->right());
  switch (e->kind()) {
    case Expression::Kind::kUnion:
      if (!l) return r;
      if (!r) return l;
      if (Subset(l, r)) return r;  // Covers X | X and absorption.
      if (Subset(r, l)) return l;
      return Expression::Union(std::move(l), std::move(r));
    case Expression::Kind::kIntersect:
      if (!l || !r) return nullptr;  // 0 & Y = X & 0 = 0.
      if (Subset(l, r)) return l;    // Covers X & X and absorption.
      if (Subset(r, l)) return r;
      return Expression::Intersect(std::move(l), std::move(r));
    case Expression::Kind::kDifference:
      if (!l) return nullptr;       // 0 - Y = 0.
      if (!r) return l;             // X - 0 = X.
      if (Subset(l, r)) return nullptr;  // Covers X - X, X - (X|Y),
                                         // (X & Y) - X, (X - Y) - X, ...
      return Expression::Difference(std::move(l), std::move(r));
    case Expression::Kind::kStream:
      break;  // Handled above.
  }
  return e;  // Unreachable.
}

// The expression as a postfix program over stream indices, evaluated on
// a truth table: bit b of a word stands for Venn region 64 * block + b,
// whose bit i says "member of stream i". One pass over the program
// decides 64 regions at once, with no tree walk or name lookup per
// region.
class RegionProgram {
 public:
  RegionProgram(const Expression& expr,
                const std::vector<std::string>& stream_order) {
    std::unordered_map<std::string, int> index;
    for (size_t i = 0; i < stream_order.size(); ++i) {
      index.emplace(stream_order[i], static_cast<int>(i));
    }
    Emit(expr, index);
  }

  // The result's membership word over regions 64 * block .. + 63.
  uint64_t Evaluate(uint64_t block) {
    stack_.clear();
    for (const Op& op : ops_) {
      if (op.kind == Expression::Kind::kStream) {
        stack_.push_back(StreamWord(op.stream, block));
        continue;
      }
      const uint64_t right = stack_.back();
      stack_.pop_back();
      uint64_t& left = stack_.back();
      switch (op.kind) {
        case Expression::Kind::kUnion:
          left |= right;
          break;
        case Expression::Kind::kIntersect:
          left &= right;
          break;
        case Expression::Kind::kDifference:
          left &= ~right;
          break;
        case Expression::Kind::kStream:
          break;  // Handled above.
      }
    }
    return stack_.back();
  }

 private:
  struct Op {
    Expression::Kind kind;
    int stream;  // Index into the order; -1 = absent (always empty).
  };

  static uint64_t StreamWord(int stream, uint64_t block) {
    // Streams 0..5 vary inside a word; stream i >= 6 is bit i - 6 of the
    // block number.
    static constexpr uint64_t kInWord[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    if (stream < 0) return 0;
    if (stream < 6) return kInWord[stream];
    return ((block >> (stream - 6)) & 1) != 0 ? ~uint64_t{0} : 0;
  }

  void Emit(const Expression& expr,
            const std::unordered_map<std::string, int>& index) {
    if (expr.kind() == Expression::Kind::kStream) {
      const auto it = index.find(expr.name());
      ops_.push_back({expr.kind(), it == index.end() ? -1 : it->second});
      return;
    }
    Emit(*expr.left(), index);
    Emit(*expr.right(), index);
    ops_.push_back({expr.kind(), -1});
  }

  std::vector<Op> ops_;
  std::vector<uint64_t> stack_;
};

// Words covering the 2^n regions of n streams, and the valid bits of
// each word (all 64 once n >= 6).
uint64_t RegionWords(size_t n) { return n <= 6 ? 1 : uint64_t{1} << (n - 6); }
uint64_t ValidBits(size_t n) {
  return n >= 6 ? ~uint64_t{0} : (uint64_t{1} << (size_t{1} << n)) - 1;
}

// Streams of a and b, first-occurrence order.
std::vector<std::string> CombinedStreams(const Expression& a,
                                         const Expression& b) {
  std::vector<std::string> streams = a.StreamNames();
  for (const std::string& name : b.StreamNames()) {
    if (std::find(streams.begin(), streams.end(), name) == streams.end()) {
      streams.push_back(name);
    }
  }
  return streams;
}

// True iff `violations(in_a, in_b)` (membership words of a's and b's
// results) is 0 on every Venn region of their combined streams; false,
// "not provable", above kMaxEnumeratedStreams streams.
template <typename Violations>
bool NoRegionViolates(const Expression& a, const Expression& b,
                      Violations violations) {
  const std::vector<std::string> streams = CombinedStreams(a, b);
  if (streams.size() > kMaxEnumeratedStreams) return false;
  RegionProgram in_a(a, streams);
  RegionProgram in_b(b, streams);
  const uint64_t valid = ValidBits(streams.size());
  for (uint64_t block = 0; block < RegionWords(streams.size()); ++block) {
    if ((violations(in_a.Evaluate(block), in_b.Evaluate(block)) & valid) !=
        0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ProvablySubset(const Expression& a, const Expression& b) {
  return NoRegionViolates(
      a, b, [](uint64_t in_a, uint64_t in_b) { return in_a & ~in_b; });
}

ExprPtr Simplify(const ExprPtr& expr) {
  if (!expr) return nullptr;
  return SimplifyImpl(expr);
}

VennRegions ResultRegions(const Expression& expr,
                          const std::vector<std::string>& stream_order) {
  VennRegions regions;
  const size_t n = stream_order.size();
  if (n > kMaxRegionStreams) {
    regions.error = "expression over " + std::to_string(n) +
                    " streams: Venn-region enumeration is limited to " +
                    std::to_string(kMaxRegionStreams);
    return regions;
  }
  // Region 0 (in no stream) needs no mask: with every leaf false, a
  // union/intersection/difference is false.
  RegionProgram program(expr, stream_order);
  for (uint64_t block = 0; block < RegionWords(n); ++block) {
    uint64_t word = program.Evaluate(block) & ValidBits(n);
    for (; word != 0; word &= word - 1) {
      regions.masks.push_back(static_cast<uint32_t>(
          block * 64 + static_cast<uint64_t>(std::countr_zero(word))));
    }
  }
  return regions;
}

bool ProvablyEmpty(const Expression& expr) {
  return NoRegionViolates(expr, expr,
                          [](uint64_t in_expr, uint64_t) { return in_expr; });
}

bool SemanticallyEqual(const Expression& a, const Expression& b) {
  return NoRegionViolates(
      a, b, [](uint64_t in_a, uint64_t in_b) { return in_a ^ in_b; });
}

}  // namespace setsketch
