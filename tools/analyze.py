#!/usr/bin/env python3
"""Project-specific static analysis for the setsketch tree.

Stage 8 (`analysis`) of tools/check.sh. Where tools/lint.py keeps generic
source hygiene (banned rand()/assert(), include guards, relative
includes), this analyzer enforces the *architectural* contracts that a
regex-per-line cannot: borrow lifetimes, routing seams, lock ordering,
and the hot-path allocation budget.

Checks (check ids):

  arena-escape        FrameView / UpdateBatchView values borrow from a
                      connection's IngestArena and are valid only for the
                      current readiness-event callback. Storing one (or a
                      field of one) in a class member, a container held in
                      a member, or static/thread_local storage outlives
                      the borrow and dangles on the next recv().
  seam-ingest         Sketch-bank mutation from server code must flow
                      through SketchServer::AdmitPush (the WAL + dedup +
                      epoch seam). Direct MutableSketches / ApplyBatch /
                      AddStream / InstallSummary calls elsewhere under
                      src/server/ bypass durability and idempotency.
  seam-estimate       Query paths must go through query/plan_cache.h;
                      direct EstimateSetExpression calls in src/ are
                      banned outside the estimator itself (every answer
                      path, the planner included, goes through
                      PlanCache over a SketchBank). Supersedes the old
                      lint.py regex, which token-blindly matched inside
                      comments and strings.
  seam-codec          A stream's synopsis has one byte layout, owned by
                      distributed/summary_codec.cc. In src/, only that
                      file and each sketch's own files may call
                      SerializeCompactTo, TwoLevelHashSketch::Deserialize,
                      DistinctSketch::SerializeTo or
                      DeserializeDistinctSketch; any other caller lays
                      out a second encoding of the same unit.
  dcheck-side-effect  SETSKETCH_DCHECK compiles out of release builds;
                      a condition with a side effect (++/--/assignment)
                      silently changes program behavior between build
                      types.
  lock-order          Extracts the cross-TU lock acquisition graph (an
                      edge A -> B for every site that acquires B while
                      holding A, keyed Class::member) and reports every
                      edge that participates in a cycle as a potential
                      deadlock. The intended partial order is documented
                      in DESIGN.md section 3.6.
  hotpath-alloc       Functions marked SETSKETCH_HOT_PATH (the per-update
                      ingest kernel: frame scan, varint decode, dedup
                      window) must not allocate, throw, or make blocking
                      syscalls. Cold error-path std::string formatting is
                      deliberately outside the signal set.
  parse-error         (libclang frontend only) a translation unit failed
                      to parse with its compile_commands.json flags.

Suppressions: a finding on line N is suppressed by a comment containing
`analyze-ok: <check-id>` on line N or N-1. Suppressions are for audited
exceptions and should carry a justification in the same comment.

Frontends:

  * libclang (clang.cindex over <build>/compile_commands.json) when
    importable: translation units are parsed for real, the seam checks
    run over AST call expressions (immune to formatting), and parse
    failures are reported. The remaining checks run on the shared
    comment/string-aware scanner.
  * lexer: the shared scanner alone, directly over src/. Used when
    python's clang bindings are absent so the stage still gates CI boxes
    without LLVM installed.

`--frontend auto` (default) picks libclang when available and falls back
with a notice; `--frontend libclang` makes its absence an error.

Corpus mode (`--corpus DIR`, used by the AnalysisCorpus ctest): every
snippet under DIR declares its own expectations --

    // analyze-as: src/server/snippet.cc   (virtual path for scoping)
    // expect: arena-escape                (one per expected check id)
    // expect-clean                        (must produce zero findings)

Snippets are analyzed together (so a seeded lock-order cycle can span
files) and each file's found check-id set must EQUAL its expected set:
a missed detection and a false positive both fail the corpus.

Exit status: 0 clean / corpus green, 1 findings / corpus mismatch,
2 usage or frontend error. Pure stdlib (libclang optional).
"""

import argparse
import re
import sys
from pathlib import Path

CHECK_IDS = (
    "arena-escape",
    "seam-ingest",
    "seam-estimate",
    "seam-backend",
    "seam-codec",
    "dcheck-side-effect",
    "lock-order",
    "hotpath-alloc",
    "parse-error",
)

VIEW_TYPES = ("FrameView", "UpdateBatchView")

# seam-ingest: bank mutators that must only be reached through AdmitPush.
INGEST_MUTATORS = (
    "MutableSketches",
    "ApplyBatch",
    "InstallSummary",
    "AddStream",
)
INGEST_SCOPE = "src/server/"
INGEST_EXEMPT = {"src/server/sketch_server.cc"}

# seam-estimate: only the estimator's own files may call it directly.
ESTIMATOR_EXEMPT = {
    "src/core/set_expression_estimator.h",
    "src/core/set_expression_estimator.cc",
}

# seam-backend: DistinctSketch estimation must flow through the kernel's
# one sanctioned entry (EstimateWithBackend in core/sketch_backend.*);
# only the registry and the backend implementations themselves may touch
# a backend's EstimateDistinct/EstimateExpression directly. Everything
# else calling them skips leaf-presence/options validation and the
# single-backend homogeneity contract.
BACKEND_EXEMPT = {
    "src/core/sketch_backend.h",
    "src/core/sketch_backend.cc",
    "src/core/theta_sketch.h",
    "src/core/theta_sketch.cc",
    "src/core/set_sketch.h",
    "src/core/set_sketch.cc",
}

# seam-codec: only the summary codec and the sketches' own files may call
# a sketch's serializers; everything else encodes a stream's synopsis
# through EncodeStreamSummary / DecodeStreamSummary.
CODEC_EXEMPT = {
    "src/distributed/summary_codec.cc",
    "src/core/two_level_hash_sketch.h",
    "src/core/two_level_hash_sketch.cc",
} | BACKEND_EXEMPT

# hotpath-alloc signals: unconditional allocation / blocking calls. Cold
# error-path string building (std::to_string, operator+) is intentionally
# not a signal -- the contract is "no allocation on the success path",
# and the success path of every marked function is branch-checked here.
HOTPATH_SIGNALS = [
    (re.compile(r"(?<![\w.])new\s"), "new expression"),
    (re.compile(r"\bmake_unique\b"), "make_unique"),
    (re.compile(r"\bmake_shared\b"), "make_shared"),
    (re.compile(r"(?<![\w.])(?:malloc|calloc|realloc|strdup)\s*\("),
     "heap allocation call"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|resize|reserve)"
                r"\s*\("),
     "container growth"),
    (re.compile(r"\bstd::(?:vector|deque|list|(?:unordered_)?(?:map|set))"
                r"\s*<[^;()]*>\s+\w+\s*[({]"),
     "container construction"),
    (re.compile(r"(?<![\w.])throw\b"), "throw"),
    (re.compile(r"::open\s*\(|\bfopen\s*\("), "file open syscall"),
    (re.compile(r"(?<![\w.])(?:sleep|usleep|nanosleep)\s*\("),
     "blocking sleep"),
]

SUPPRESS_RE = re.compile(r"analyze-ok:\s*([a-z-]+)")
DIRECTIVE_ANALYZE_AS = re.compile(r"//\s*analyze-as:\s*(\S+)")
DIRECTIVE_EXPECT = re.compile(r"//\s*expect:\s*([a-z-]+)")
DIRECTIVE_CLEAN = re.compile(r"//\s*expect-clean")

LOCK_DECL_RE = re.compile(
    r"\b(?:MutexLock|std::lock_guard<[^>]*>|std::unique_lock<[^>]*>|"
    r"lock_guard<[^>]*>|unique_lock<[^>]*>)\s+\w+\s*\(\s*&?\s*"
    r"([\w]+(?:(?:->|\.)\w+)*)\s*[),]"
)
METHOD_DEF_RE = re.compile(r"\b(\w+)::~?\w+\s*\(")
CLASS_OPEN_RE = re.compile(
    r"(?<!enum )\b(?:class|struct)\s+"
    r"(?:SETSKETCH_\w+(?:\(\s*\"[^\"]*\"\s*\))?\s+)*(\w+)[^;{]*\{")
DCHECK_RE = re.compile(r"\bSETSKETCH_DCHECK\s*\(")
SIDE_EFFECT_RE = re.compile(
    r"\+\+|--|(?:\+|-|\*|/|%|&|\||\^|<<|>>)=(?!=)|"
    r"(?<![=!<>+\-*/%&|^])=(?![=])"
)
CODEC_CALL_RE = re.compile(
    r"(?:(?:\.|->)\s*(SerializeTo|SerializeCompactTo)|"
    r"(?<![\w:])(TwoLevelHashSketch::Deserialize|DeserializeDistinctSketch))"
    r"\s*\(")
ESTIMATE_CALL_RE = re.compile(r"(?<![\w:.])EstimateSetExpression\s*\(")
BACKEND_CALL_RE = re.compile(
    r"(?:\.|->)\s*(EstimateDistinct|EstimateExpression)\s*\(")
INGEST_CALL_RE = re.compile(
    r"(?<![\w:])(?:\.|->)?\s*(" + "|".join(INGEST_MUTATORS) + r")\s*\("
)
HOT_MARK_LEADING_RE = re.compile(
    r"SETSKETCH_HOT_PATH\s+(?:[\w:<>,*&]+\s+)*?(\w+)\s*\("
)
HOT_MARK_TRAILING_RE = re.compile(
    r"\b(\w+)\s*\((?:[^()]|\([^()]*\))*\)\s*(?:const\s*)?"
    r"SETSKETCH_HOT_PATH", re.S
)


def strip_code(text):
    """Blanks comments and string/char literal contents, keeping line
    structure and the delimiting quotes, so token checks can't match
    inside either."""
    out = []
    i = 0
    n = len(text)
    state = "code"
    raw_delim = None
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? Look back for R (R"delim( ).
                j = len(out) - 1
                if j >= 0 and out[j] == "R" and (
                        j == 0 or not (out[j - 1].isalnum()
                                       or out[j - 1] == "_")):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        out.append('"')
                        i += 1
                        continue
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "str":
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "chr":
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # raw
            if text.startswith(raw_delim, i):
                out.append(raw_delim)
                i += len(raw_delim)
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


class SourceFile:
    """One analyzed file: real path, virtual (scoping) path, raw text,
    stripped code, and per-line suppressions."""

    def __init__(self, path, virtual_path, text):
        self.path = path
        self.virtual = virtual_path
        self.text = text
        self.code = strip_code(text)
        self.lines = self.code.split("\n")
        self.raw_lines = text.split("\n")
        self.suppress = {}  # line -> set of check ids
        for lineno, raw in enumerate(self.raw_lines, start=1):
            for m in SUPPRESS_RE.finditer(raw):
                for target in (lineno, lineno + 1):
                    self.suppress.setdefault(target, set()).add(m.group(1))


class Finding:
    def __init__(self, file, line, check, message):
        self.file = file
        self.line = line
        self.check = check
        self.message = message

    def key(self):
        return (self.file, self.line, self.check)

    def __str__(self):
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"


class Analysis:
    """Scanner-based analysis over a set of SourceFiles. All checks are
    frontend-independent; the libclang frontend layers AST-derived seam
    findings and parse diagnostics on top."""

    def __init__(self, files):
        self.files = files
        self.findings = []
        self.lock_edges = {}  # (a, b) -> [(file, line)]
        self.hot_functions = set()  # "Class::name" or "name"

    def add(self, sf, line, check, message):
        if check in sf.suppress.get(line, set()):
            return
        self.findings.append(Finding(sf.virtual, line, check, message))

    def run(self):
        for sf in self.files:
            self.collect_hot_markers(sf)
        for sf in self.files:
            self.check_seams(sf)
            self.check_dcheck(sf)
            self.scan_scopes(sf)
        for sf in self.files:
            self.check_hotpath_bodies(sf)
        self.check_lock_cycles()
        unique = {}
        for f in self.findings:
            unique.setdefault(f.key(), f)
        self.findings = sorted(
            unique.values(), key=lambda f: (f.file, f.line, f.check))
        return self.findings

    # ---- seam checks -------------------------------------------------

    def check_seams(self, sf):
        in_src = sf.virtual.startswith("src/")
        ingest_scoped = (sf.virtual.startswith(INGEST_SCOPE)
                         and sf.virtual not in INGEST_EXEMPT)
        estimate_scoped = in_src and sf.virtual not in ESTIMATOR_EXEMPT
        backend_scoped = in_src and sf.virtual not in BACKEND_EXEMPT
        codec_scoped = in_src and sf.virtual not in CODEC_EXEMPT
        if not (ingest_scoped or estimate_scoped or backend_scoped
                or codec_scoped):
            return
        for lineno, line in enumerate(sf.lines, start=1):
            if estimate_scoped and ESTIMATE_CALL_RE.search(line):
                self.add(
                    sf, lineno, "seam-estimate",
                    "direct EstimateSetExpression call: route queries "
                    "through query/plan_cache.h (PlanCache::Query over "
                    "a SketchBank)")
            if backend_scoped:
                m = BACKEND_CALL_RE.search(line)
                if m:
                    self.add(
                        sf, lineno, "seam-backend",
                        f"direct DistinctSketch::{m.group(1)} call: "
                        "backend estimation must flow through "
                        "EstimateWithBackend (core/sketch_backend.h), "
                        "which validates leaves, options, and backend "
                        "homogeneity")
            if codec_scoped:
                m = CODEC_CALL_RE.search(line)
                if m:
                    self.add(
                        sf, lineno, "seam-codec",
                        f"direct {m.group(1) or m.group(2)} call: a "
                        "stream's synopsis is laid out only by "
                        "distributed/summary_codec.h "
                        "(EncodeStreamSummary / DecodeStreamSummary)")
            if ingest_scoped:
                m = INGEST_CALL_RE.search(line)
                if m:
                    self.add(
                        sf, lineno, "seam-ingest",
                        f"direct SketchBank::{m.group(1)} call in server "
                        "code: ingest mutations must flow through "
                        "SketchServer::AdmitPush (WAL + dedup + epoch "
                        "seam)")

    # ---- DCHECK side effects -----------------------------------------

    def check_dcheck(self, sf):
        code = sf.code
        for m in DCHECK_RE.finditer(code):
            start = m.end() - 1  # at the opening paren
            depth = 0
            i = start
            while i < len(code):
                if code[i] == "(":
                    depth += 1
                elif code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            condition = code[start + 1:i]
            if SIDE_EFFECT_RE.search(condition):
                lineno = code.count("\n", 0, m.start()) + 1
                self.add(
                    sf, lineno, "dcheck-side-effect",
                    "SETSKETCH_DCHECK condition has a side effect "
                    "(++/--/assignment); DCHECKs compile out of release "
                    "builds, so the effect vanishes with NDEBUG")

    # ---- scope scan: lock order, arena escapes, class members --------

    def scan_scopes(self, sf):
        """Single pass over the stripped code tracking brace depth, the
        enclosing class (for lock keys and member declarations), locals
        of view type, and live lock scopes."""
        class_stack = []  # (entry_depth, name)
        lock_stack = []  # (entry_depth, key)
        view_locals = {}  # name -> declared type
        current_class_ctx = ""  # Foo:: prefix from method definitions
        depth = 0
        for lineno, line in enumerate(sf.lines, start=1):
            m = METHOD_DEF_RE.search(line)
            if m and depth <= 1 + len(class_stack):
                current_class_ctx = m.group(1)
                view_locals = {}
            m = CLASS_OPEN_RE.search(line)
            if m and "enum" not in line:
                class_stack.append((depth, m.group(1)))

            in_class_body = bool(class_stack) and not line.lstrip().startswith("}")
            if in_class_body and class_stack[-1][1] not in VIEW_TYPES:
                dm = re.match(
                    r"\s*(?:std::vector<\s*)?(FrameView|UpdateBatchView)"
                    r"\s*>?\s+\w+\s*(?:=[^=]|;|\{)", line)
                if dm:
                    self.add(
                        sf, lineno, "arena-escape",
                        f"class member of arena-view type {dm.group(1)}: "
                        "views borrow from the connection's IngestArena "
                        "and dangle past the readiness-event callback")

            sm = re.search(
                r"\b(thread_local|static)\s+(?:const\s+)?"
                r"(FrameView|UpdateBatchView)\b", line)
            if sm:
                self.add(
                    sf, lineno, "arena-escape",
                    f"{sm.group(1)} storage of arena-view type "
                    f"{sm.group(2)} outlives the readiness-event borrow")

            lm = re.match(
                r"\s*(?:thread_local\s+)?(FrameView|UpdateBatchView)"
                r"\s+(\w+)\s*[;={]", line)
            if lm and not class_stack:
                view_locals[lm.group(2)] = lm.group(1)

            if view_locals:
                self.check_view_stores(sf, lineno, line, view_locals)

            # Lock scopes + edges. Process braces and declarations in
            # positional order so a same-line `{ MutexLock l(&m); }`
            # nests correctly.
            events = []
            for i, c in enumerate(line):
                if c == "{":
                    events.append((i, "open", None))
                elif c == "}":
                    events.append((i, "close", None))
            for dm in LOCK_DECL_RE.finditer(line):
                events.append((dm.start(), "lock", dm.group(1)))
            events.sort(key=lambda e: e[0])
            for _, kind, arg in events:
                if kind == "open":
                    depth += 1
                elif kind == "close":
                    depth -= 1
                    while lock_stack and lock_stack[-1][0] > depth:
                        lock_stack.pop()
                    while class_stack and class_stack[-1][0] >= depth:
                        class_stack.pop()
                else:
                    key = self.lock_key(arg, current_class_ctx)
                    for _, held in lock_stack:
                        if held != key:
                            self.lock_edges.setdefault(
                                (held, key), []).append(
                                    (sf.virtual, lineno))
                    lock_stack.append((depth, key))

    @staticmethod
    def lock_key(expr, class_ctx):
        """Normalizes a lock expression to a graph key. Plain members
        (`mu_`) get the enclosing class prefix so `Wal::mutex_` and
        `PlanCache::mutex_` stay distinct; pointer paths keep their final
        component qualified by the pointer name (`state->mutex`)."""
        expr = expr.strip()
        if re.fullmatch(r"\w+", expr):
            return f"{class_ctx}::{expr}" if class_ctx else expr
        return f"{class_ctx}::{expr}" if class_ctx else expr

    def check_view_stores(self, sf, lineno, line, view_locals):
        names = "|".join(re.escape(n) for n in view_locals)
        # member = ... view ... ;   or   member_.push_back(view...)
        if re.search(
                rf"\b\w+_\s*=[^=].*\b(?:{names})\b", line) or re.search(
                rf"\b\w+_\s*\.\s*(?:push_back|emplace_back|insert|"
                rf"emplace)\s*\(.*\b(?:{names})\b", line):
            self.add(
                sf, lineno, "arena-escape",
                "arena view stored into a class member: the borrow ends "
                "with the readiness-event callback; copy the bytes "
                "instead")

    # ---- hot path ----------------------------------------------------

    def collect_hot_markers(self, sf):
        """Finds SETSKETCH_HOT_PATH-marked declarations, qualified by
        the enclosing class when declared inside one."""
        if sf.virtual.endswith("util/thread_annotations.h"):
            return  # The macro's own definition, not a marked function.
        code = sf.code
        marks = []
        for m in HOT_MARK_LEADING_RE.finditer(code):
            marks.append((m.start(), m.group(1)))
        for m in HOT_MARK_TRAILING_RE.finditer(code):
            marks.append((m.start(), m.group(1)))
        marks = [(o, n) for o, n in marks if not n.startswith("__")]
        if not marks:
            return
        # Map offsets to enclosing class via a coarse brace walk.
        class_at = self.class_regions(code)
        for offset, name in marks:
            cls = class_at(offset)
            self.hot_functions.add(f"{cls}::{name}" if cls else name)

    @staticmethod
    def class_regions(code):
        regions = []  # (start, end, name)
        for m in CLASS_OPEN_RE.finditer(code):
            if "enum" in m.group(0):
                continue
            depth = 0
            i = m.end() - 1
            while i < len(code):
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            regions.append((m.start(), i, m.group(1)))

        def lookup(offset):
            best = ""
            best_span = None
            for start, end, name in regions:
                if start <= offset <= end:
                    span = end - start
                    if best_span is None or span < best_span:
                        best, best_span = name, span
            return best

        return lookup

    def check_hotpath_bodies(self, sf):
        if not self.hot_functions:
            return
        code = sf.code
        for qualified in sorted(self.hot_functions):
            cls, _, name = qualified.rpartition("::")
            if cls:
                pattern = rf"\b{re.escape(cls)}\s*::\s*{re.escape(name)}\s*\("
            else:
                pattern = rf"(?<![\w:])(?<!\.){re.escape(name)}\s*\("
            for m in re.finditer(pattern, code):
                body = self.match_body(code, m.end() - 1)
                if body is None:
                    continue
                body_start, body_text = body
                # In-class definitions of unqualified hot names would
                # mis-bind; skip unqualified matches inside any class.
                if not cls and self.class_regions(code)(m.start()):
                    continue
                for signal, label in HOTPATH_SIGNALS:
                    sm = signal.search(body_text)
                    if sm:
                        lineno = code.count(
                            "\n", 0, body_start + sm.start()) + 1
                        self.add(
                            sf, lineno, "hotpath-alloc",
                            f"{label} inside SETSKETCH_HOT_PATH function "
                            f"{qualified or name}: the per-update ingest "
                            "kernel must not allocate or block")

    @staticmethod
    def match_body(code, paren_start):
        """From the opening paren of a candidate definition, skips the
        parameter list and returns (body_offset, body_text) if a `{`
        body follows (i.e. this is a definition, not a call/decl)."""
        depth = 0
        i = paren_start
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        else:
            return None
        j = i + 1
        while j < len(code):
            if code[j].isspace():
                j += 1
                continue
            word = re.match(r"\w+", code[j:])
            if word and word.group(0) in ("const", "noexcept", "override",
                                          "final"):
                j += word.end()
                continue
            break
        if j >= len(code) or code[j] != "{":
            return None
        depth = 0
        k = j
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        return j, code[j:k + 1]

    # ---- lock-order cycles -------------------------------------------

    def check_lock_cycles(self):
        graph = {}
        for (a, b), _sites in self.lock_edges.items():
            graph.setdefault(a, set()).add(b)

        def reaches(src, dst):
            seen = set()
            stack = [src]
            while stack:
                node = stack.pop()
                if node == dst:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(graph.get(node, ()))
            return False

        for (a, b), sites in sorted(self.lock_edges.items()):
            if reaches(b, a):
                for file, line in sites:
                    sf = next(
                        (s for s in self.files if s.virtual == file), None)
                    finding = Finding(
                        file, line, "lock-order",
                        f"acquiring {b} while holding {a} completes a "
                        "lock cycle (potential deadlock); see the lock "
                        "order in DESIGN.md section 3.6")
                    if sf is not None and "lock-order" in sf.suppress.get(
                            line, set()):
                        continue
                    self.findings.append(finding)


# ---- libclang frontend ----------------------------------------------


def libclang_seam_findings(build_dir, files, notices):
    """Parses each file's TU with its compile_commands.json flags and
    returns AST-level seam findings + parse errors, or None if the
    bindings are unusable."""
    try:
        from clang import cindex
    except ImportError:
        return None
    try:
        db = cindex.CompilationDatabase.fromDirectory(str(build_dir))
        index = cindex.Index.create()
    except Exception as error:  # noqa: BLE001 - degrade to lexer
        notices.append(f"libclang unusable ({error}); using lexer")
        return None

    by_real = {str(sf.path): sf for sf in files}
    findings = []
    parsed = 0
    for sf in files:
        if sf.path is None or sf.path.suffix != ".cc":
            continue
        commands = db.getCompileCommands(str(sf.path))
        if not commands:
            continue
        args = [a for a in list(commands[0].arguments)[1:-1]
                if a not in ("-c", "-o") and not a.endswith(".o")]
        try:
            tu = index.parse(str(sf.path), args=args)
        except Exception as error:  # noqa: BLE001
            notices.append(f"libclang parse failed for {sf.virtual}: "
                           f"{error}")
            continue
        parsed += 1
        for diag in tu.diagnostics:
            if diag.severity >= cindex.Diagnostic.Error:
                findings.append(Finding(
                    sf.virtual, diag.location.line, "parse-error",
                    diag.spelling))
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind != cindex.CursorKind.CALL_EXPR:
                continue
            loc = cursor.location
            if loc.file is None:
                continue
            owner = by_real.get(str(loc.file))
            if owner is None:
                continue
            name = cursor.spelling
            if (name == "EstimateSetExpression"
                    and owner.virtual.startswith("src/")
                    and owner.virtual not in ESTIMATOR_EXEMPT):
                findings.append(Finding(
                    owner.virtual, loc.line, "seam-estimate",
                    "direct EstimateSetExpression call (AST): route "
                    "queries through query/plan_cache.h (PlanCache::Query "
                    "over a SketchBank)"))
            if (name in INGEST_MUTATORS
                    and owner.virtual.startswith(INGEST_SCOPE)
                    and owner.virtual not in INGEST_EXEMPT):
                findings.append(Finding(
                    owner.virtual, loc.line, "seam-ingest",
                    f"direct SketchBank::{name} call (AST): ingest "
                    "mutations must flow through AdmitPush"))
    notices.append(f"libclang frontend: {parsed} TU(s) parsed")
    return findings


# ---- drivers ---------------------------------------------------------


def load_tree(root):
    files = []
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".h", ".cc") and path.is_file():
            virtual = path.relative_to(root).as_posix()
            files.append(SourceFile(
                path, virtual, path.read_text(encoding="utf-8")))
    return files


def run_production(args, root):
    files = load_tree(root)
    if not files:
        print(f"{root}/src: no sources found", file=sys.stderr)
        return 2
    analysis = Analysis(files)
    findings = analysis.run()

    notices = []
    if args.frontend in ("auto", "libclang"):
        build_dir = root / args.build_dir
        ast = None
        if (build_dir / "compile_commands.json").is_file():
            ast = libclang_seam_findings(build_dir, files, notices)
        else:
            notices.append(
                f"{build_dir}/compile_commands.json missing; using lexer")
        if ast is None and args.frontend == "libclang":
            for notice in notices:
                print(f"analyze: {notice}", file=sys.stderr)
            print("analyze: --frontend libclang requested but "
                  "unavailable", file=sys.stderr)
            return 2
        if ast:
            seen = {f.key() for f in findings}
            findings.extend(f for f in ast if f.key() not in seen)
            findings.sort(key=lambda f: (f.file, f.line, f.check))

    for notice in notices:
        print(f"analyze: {notice}")
    for finding in findings:
        print(finding, file=sys.stderr)
    hot = len(analysis.hot_functions)
    edges = len(analysis.lock_edges)
    if findings:
        print(f"analyze: {len(findings)} finding(s) in {len(files)} "
              f"files", file=sys.stderr)
        return 1
    print(f"analyze: ok ({len(files)} files, {hot} hot-path functions, "
          f"{edges} lock-order edges, 0 cycles)")
    return 0


def run_corpus(args, corpus_dir):
    snippets = []
    for path in sorted(corpus_dir.glob("*.cc")) + sorted(
            corpus_dir.glob("*.h")):
        text = path.read_text(encoding="utf-8")
        virt = DIRECTIVE_ANALYZE_AS.search(text)
        expects = set(DIRECTIVE_EXPECT.findall(text))
        clean = DIRECTIVE_CLEAN.search(text) is not None
        if virt is None:
            print(f"{path}: missing '// analyze-as:' directive",
                  file=sys.stderr)
            return 2
        if not expects and not clean:
            print(f"{path}: needs '// expect: <id>' or '// expect-clean'",
                  file=sys.stderr)
            return 2
        unknown = expects - set(CHECK_IDS)
        if unknown:
            print(f"{path}: unknown check id(s) {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        snippets.append(
            (path, SourceFile(path, virt.group(1), text), expects))

    analysis = Analysis([sf for _, sf, _ in snippets])
    findings = analysis.run()
    by_virtual = {}
    for finding in findings:
        by_virtual.setdefault(finding.file, set()).add(finding.check)

    failures = 0
    for path, sf, expects in snippets:
        found = by_virtual.get(sf.virtual, set())
        if found == expects:
            verdict = "ok"
        else:
            verdict = "FAIL"
            failures += 1
        detail = (f"expected {sorted(expects) or ['clean']}, "
                  f"found {sorted(found) or ['clean']}")
        print(f"corpus {verdict}: {path.name} ({detail})")
        if verdict == "FAIL":
            for finding in findings:
                if finding.file == sf.virtual:
                    print(f"    {finding}", file=sys.stderr)
    total = len(snippets)
    if failures:
        print(f"corpus: {failures}/{total} snippet(s) FAILED",
              file=sys.stderr)
        return 1
    print(f"corpus: ok ({total} snippets)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=str(Path(__file__).resolve().parent.parent),
        help="repository root (default: this script's parent repo)")
    parser.add_argument(
        "--build-dir", default="build",
        help="build tree holding compile_commands.json (default: build)")
    parser.add_argument(
        "--frontend", choices=("auto", "libclang", "lexer"),
        default="auto",
        help="auto: libclang when importable, else the lexer")
    parser.add_argument(
        "--corpus", metavar="DIR",
        help="corpus mode: verify // expect: directives under DIR")
    parser.add_argument(
        "--list-checks", action="store_true",
        help="print the check ids and exit")
    args = parser.parse_args(argv[1:])

    if args.list_checks:
        for check in CHECK_IDS:
            print(check)
        return 0

    root = Path(args.root)
    if args.corpus:
        corpus_dir = Path(args.corpus)
        if not corpus_dir.is_dir():
            print(f"{corpus_dir}: not a directory", file=sys.stderr)
            return 2
        return run_corpus(args, corpus_dir)
    if not (root / "src").is_dir():
        print(f"{root}/src: not a directory (wrong --root?)",
              file=sys.stderr)
        return 2
    return run_production(args, root)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
