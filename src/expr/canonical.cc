#include "expr/canonical.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>

#include "hash/prng.h"
#include "util/check.h"

namespace setsketch {

namespace {

// Structural hashing: one salt per node kind, children folded in canonical
// order through the SplitMix64 finalizer (order-sensitive, which is what we
// want — union children are pre-sorted, difference children are not
// commutative).
constexpr uint64_t kSaltStream = 0x73747265616d5f31ULL;
constexpr uint64_t kSaltUnion = 0x756e696f6e5f5f31ULL;
constexpr uint64_t kSaltIntersect = 0x696e746572735f31ULL;
constexpr uint64_t kSaltDifference = 0x646966665f5f5f31ULL;

uint64_t MixHash(uint64_t h, uint64_t value) {
  return SplitMix64(h ^ (value + 0x9e3779b97f4a7c15ULL)).Next();
}

uint64_t KindSalt(Expression::Kind kind) {
  switch (kind) {
    case Expression::Kind::kStream: return kSaltStream;
    case Expression::Kind::kUnion: return kSaltUnion;
    case Expression::Kind::kIntersect: return kSaltIntersect;
    case Expression::Kind::kDifference: return kSaltDifference;
  }
  return 0;
}

// Builds the hash-consed DAG bottom-up. Structurally equal sub-expressions
// intern to the same node id, so "same id" == "same canonical subtree".
class Builder {
 public:
  int Build(const Expression& expr) {
    switch (expr.kind()) {
      case Expression::Kind::kStream: {
        CanonicalNode node;
        node.kind = Expression::Kind::kStream;
        node.name = expr.name();
        return Intern(std::move(node));
      }
      case Expression::Kind::kUnion:
      case Expression::Kind::kIntersect: {
        std::vector<int> children;
        CollectNary(expr, expr.kind(), &children);
        return MakeNary(expr.kind(), std::move(children));
      }
      case Expression::Kind::kDifference: {
        const int left = Build(*expr.left());
        const int right = Build(*expr.right());
        return MakeDifference(left, right);
      }
    }
    SETSKETCH_CHECK(false) << "unreachable expression kind";
    return -1;
  }

  CanonicalPlan Finish(int root) {
    CanonicalPlan plan;
    plan.nodes = std::move(nodes_);
    plan.root = root;
    // Assign sorted leaf columns.
    for (const CanonicalNode& node : plan.nodes) {
      if (node.kind == Expression::Kind::kStream) {
        plan.streams.push_back(node.name);
      }
    }
    std::sort(plan.streams.begin(), plan.streams.end());
    for (CanonicalNode& node : plan.nodes) {
      if (node.kind == Expression::Kind::kStream) {
        const auto it = std::lower_bound(plan.streams.begin(),
                                         plan.streams.end(), node.name);
        node.column = static_cast<int>(it - plan.streams.begin());
      }
    }
    // `uses` counts parents among nodes reachable from the root only;
    // nodes orphaned by a rewrite (e.g. the inner node of a collapsed
    // difference chain) must not inflate sharing.
    if (root >= 0) {
      std::vector<unsigned char> live(plan.nodes.size(), 0);
      std::vector<int> stack = {root};
      live[static_cast<size_t>(root)] = 1;
      while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        for (const int child : plan.nodes[static_cast<size_t>(id)].children) {
          ++plan.nodes[static_cast<size_t>(child)].uses;
          if (live[static_cast<size_t>(child)] == 0) {
            live[static_cast<size_t>(child)] = 1;
            stack.push_back(child);
          }
        }
      }
    }
    return plan;
  }

 private:
  // Flattens a left/right tree of `kind` nodes into its n-ary child list
  // (recursing into sub-expressions of any other kind).
  void CollectNary(const Expression& expr, Expression::Kind kind,
                   std::vector<int>* children) {
    if (expr.kind() == kind) {
      CollectNary(*expr.left(), kind, children);
      CollectNary(*expr.right(), kind, children);
      return;
    }
    const int id = Build(expr);
    // A freshly built child can itself be an n-ary node of the same kind
    // (e.g. the base of a rewritten difference): splice its children too.
    AppendFlattened(id, kind, children);
  }

  void AppendFlattened(int id, Expression::Kind kind,
                       std::vector<int>* children) {
    const CanonicalNode& node = nodes_[static_cast<size_t>(id)];
    if (node.kind == kind && kind != Expression::Kind::kDifference) {
      children->insert(children->end(), node.children.begin(),
                       node.children.end());
    } else {
      children->push_back(id);
    }
  }

  // Sorts, dedupes, and interns an n-ary union/intersection; a single
  // distinct child collapses to that child (X u X = X, X n X = X).
  int MakeNary(Expression::Kind kind, std::vector<int> children) {
    std::sort(children.begin(), children.end(),
              [this](int a, int b) { return NodeLess(a, b); });
    children.erase(std::unique(children.begin(), children.end()),
                   children.end());
    if (children.size() == 1) return children[0];
    CanonicalNode node;
    node.kind = kind;
    node.children = std::move(children);
    return Intern(std::move(node));
  }

  // (X - Y) - Z -> X - (Y u Z): collect every subtracted term against the
  // innermost base, then subtract their (canonical) union once.
  int MakeDifference(int left, int right) {
    std::vector<int> subtracted;
    int base = left;
    if (nodes_[static_cast<size_t>(base)].kind ==
        Expression::Kind::kDifference) {
      const std::vector<int>& pair =
          nodes_[static_cast<size_t>(base)].children;
      AppendFlattened(pair[1], Expression::Kind::kUnion, &subtracted);
      base = pair[0];
    }
    AppendFlattened(right, Expression::Kind::kUnion, &subtracted);
    const int subtrahend =
        MakeNary(Expression::Kind::kUnion, std::move(subtracted));
    CanonicalNode node;
    node.kind = Expression::Kind::kDifference;
    node.children = {base, subtrahend};
    return Intern(std::move(node));
  }

  int Intern(CanonicalNode node) {
    std::string key(1, static_cast<char>(node.kind));
    if (node.kind == Expression::Kind::kStream) {
      key += node.name;
    } else {
      for (const int child : node.children) {
        key.append(reinterpret_cast<const char*>(&child), sizeof(child));
      }
    }
    const auto it = interned_.find(key);
    if (it != interned_.end()) return it->second;

    uint64_t h = KindSalt(node.kind);
    if (node.kind == Expression::Kind::kStream) {
      for (const char c : node.name) {
        h = MixHash(h, static_cast<unsigned char>(c));
      }
    } else {
      for (const int child : node.children) {
        h = MixHash(h, nodes_[static_cast<size_t>(child)].hash);
      }
    }
    node.hash = h;
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(std::move(node));
    interned_.emplace(std::move(key), id);
    return id;
  }

  // Deterministic child order: structural hash first, full structural
  // comparison only on the (astronomically rare) hash tie between
  // distinct subtrees. Equal ids are equal subtrees by hash-consing.
  bool NodeLess(int a, int b) const {
    if (a == b) return false;
    const CanonicalNode& na = nodes_[static_cast<size_t>(a)];
    const CanonicalNode& nb = nodes_[static_cast<size_t>(b)];
    if (na.hash != nb.hash) return na.hash < nb.hash;
    return StructuralLess(a, b);
  }

  bool StructuralLess(int a, int b) const {
    if (a == b) return false;
    const CanonicalNode& na = nodes_[static_cast<size_t>(a)];
    const CanonicalNode& nb = nodes_[static_cast<size_t>(b)];
    if (na.kind != nb.kind) return na.kind < nb.kind;
    if (na.kind == Expression::Kind::kStream) return na.name < nb.name;
    if (na.children.size() != nb.children.size()) {
      return na.children.size() < nb.children.size();
    }
    for (size_t i = 0; i < na.children.size(); ++i) {
      if (na.children[i] == nb.children[i]) continue;
      if (StructuralLess(na.children[i], nb.children[i])) return true;
      if (StructuralLess(nb.children[i], na.children[i])) return false;
    }
    return false;
  }

  std::vector<CanonicalNode> nodes_;
  std::unordered_map<std::string, int> interned_;
};

const char* Separator(Expression::Kind kind) {
  switch (kind) {
    case Expression::Kind::kUnion: return " | ";
    case Expression::Kind::kIntersect: return " & ";
    case Expression::Kind::kDifference: return " - ";
    case Expression::Kind::kStream: break;
  }
  return " ? ";
}

}  // namespace

uint64_t CanonicalPlan::hash() const {
  return ok() ? nodes[static_cast<size_t>(root)].hash : 0;
}

std::string CanonicalPlan::NodeToString(int node) const {
  const CanonicalNode& n = nodes[static_cast<size_t>(node)];
  if (n.kind == Expression::Kind::kStream) return n.name;
  std::string out = "(";
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (i > 0) out += Separator(n.kind);
    out += NodeToString(n.children[i]);
  }
  out += ")";
  return out;
}

std::string CanonicalPlan::ToString() const {
  return ok() ? NodeToString(root) : "<invalid>";
}

int CanonicalPlan::SharedNodeCount() const {
  int shared = 0;
  for (const CanonicalNode& node : nodes) {
    if (node.kind != Expression::Kind::kStream && node.uses > 1) ++shared;
  }
  return shared;
}

CanonicalPlan Canonicalize(const Expression& expr) {
  Builder builder;
  const int root = builder.Build(expr);
  return builder.Finish(root);
}

const uint64_t* EvaluatePlan(const CanonicalPlan& plan,
                             std::span<const uint64_t* const> leaves,
                             size_t words, std::vector<uint64_t>* scratch) {
  scratch->resize(plan.nodes.size() * words);
  uint64_t* values = scratch->data();
  const auto node_words = [values, words](int id) {
    return values + static_cast<size_t>(id) * words;
  };
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const CanonicalNode& node = plan.nodes[i];
    uint64_t* out = node_words(static_cast<int>(i));
    switch (node.kind) {
      case Expression::Kind::kStream:
        std::copy_n(leaves[static_cast<size_t>(node.column)], words, out);
        break;
      case Expression::Kind::kUnion:
        std::copy_n(node_words(node.children[0]), words, out);
        for (size_t c = 1; c < node.children.size(); ++c) {
          const uint64_t* child = node_words(node.children[c]);
          for (size_t w = 0; w < words; ++w) out[w] |= child[w];
        }
        break;
      case Expression::Kind::kIntersect:
        std::copy_n(node_words(node.children[0]), words, out);
        for (size_t c = 1; c < node.children.size(); ++c) {
          const uint64_t* child = node_words(node.children[c]);
          for (size_t w = 0; w < words; ++w) out[w] &= child[w];
        }
        break;
      case Expression::Kind::kDifference: {
        const uint64_t* base = node_words(node.children[0]);
        const uint64_t* subtrahend = node_words(node.children[1]);
        for (size_t w = 0; w < words; ++w) {
          out[w] = base[w] & ~subtrahend[w];
        }
        break;
      }
    }
  }
  return node_words(plan.root);
}

namespace {

// Truth-table words per EvaluatePlan call: 4096 Venn regions, so the
// scratch arena holds nodes x 64 words whatever the stream count (a QUERY
// text may carry millions of nodes).
constexpr size_t kTruthTableChunkWords = 64;

// Calls visit(w, bits) for each word w of the truth table over `n`
// streams, in order: bit b of word w is Venn region 64 * w + b, whose bit
// i says "member of stream i", and `bits` is the plan's result on those
// regions (bits past region 2^n - 1 cleared). plan.streams[c] is stream
// bit[c], or always empty when bit[c] < 0. Stops, returning false, as
// soon as visit returns false.
template <typename Visit>
bool ForEachRegionWord(const CanonicalPlan& plan, const std::vector<int>& bit,
                       size_t n, const Visit& visit) {
  // Streams 0..5 vary inside a word; stream i >= 6 is bit i - 6 of the
  // word index.
  static constexpr uint64_t kInWord[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const uint64_t words = n <= 6 ? 1 : uint64_t{1} << (n - 6);
  const uint64_t valid =
      n >= 6 ? ~uint64_t{0} : (uint64_t{1} << (size_t{1} << n)) - 1;
  const size_t chunk =
      static_cast<size_t>(std::min<uint64_t>(words, kTruthTableChunkWords));
  std::vector<uint64_t> columns(plan.streams.size() * chunk);
  std::vector<const uint64_t*> leaves(plan.streams.size());
  std::vector<uint64_t> scratch;
  for (uint64_t first = 0; first < words; first += chunk) {
    for (size_t c = 0; c < leaves.size(); ++c) {
      uint64_t* column = columns.data() + c * chunk;
      leaves[c] = column;
      const int i = bit[c];
      for (size_t w = 0; w < chunk; ++w) {
        if (i < 0) {
          column[w] = 0;
        } else if (i < 6) {
          column[w] = kInWord[i];
        } else {
          column[w] = ((first + w) >> (i - 6)) & 1 ? ~uint64_t{0} : 0;
        }
      }
    }
    const uint64_t* result = EvaluatePlan(plan, leaves, chunk, &scratch);
    for (size_t w = 0; w < chunk; ++w) {
      if (!visit(first + w, result[w] & valid)) return false;
    }
  }
  return true;
}

}  // namespace

bool ProvablyEmpty(const CanonicalPlan& plan) {
  const size_t n = plan.streams.size();
  if (!plan.ok() || n > kMaxEnumeratedStreams) return false;
  std::vector<int> bit(n);
  std::iota(bit.begin(), bit.end(), 0);
  return ForEachRegionWord(plan, bit, n,
                           [](uint64_t, uint64_t bits) { return bits == 0; });
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
  const CanonicalPlan plan = Canonicalize(expr);
  std::vector<int> bit(plan.streams.size(), -1);
  for (size_t i = n; i-- > 0;) {  // Backwards: the first position wins.
    const auto it = std::lower_bound(plan.streams.begin(), plan.streams.end(),
                                     stream_order[i]);
    if (it != plan.streams.end() && *it == stream_order[i]) {
      bit[static_cast<size_t>(it - plan.streams.begin())] =
          static_cast<int>(i);
    }
  }
  // Region 0 (in no stream) is never listed: with every leaf false, a
  // union/intersection/difference is false.
  ForEachRegionWord(plan, bit, n, [&regions](uint64_t word, uint64_t bits) {
    for (; bits != 0; bits &= bits - 1) {
      regions.masks.push_back(static_cast<uint32_t>(
          word * 64 + static_cast<uint64_t>(std::countr_zero(bits))));
    }
    return true;
  });
  return regions;
}

}  // namespace setsketch
