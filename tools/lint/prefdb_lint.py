#!/usr/bin/env python3
"""prefdb-lint: project-invariant checks no generic linter knows about.

Every rule here encodes a bug class this repo actually shipped (see the
"Static analysis" section of README.md for the motivating incident behind
each rule):

  prefdb-downcast-preference
      No static_cast / C-style cast to a polymorphic *Preference type.
      Kind-tag downcasts segfaulted when a class shared a kind with a
      different layout (PR 2's IntrinsicLevel bug); use dynamic_cast or
      virtual dispatch.
  prefdb-raw-mutex
      No bare .lock()/.unlock() on std::mutex members — RAII guards only.
      The Engine mutex may only be taken through Engine::Lock() (whose
      try_to_lock-then-block form is recognized), so the contention
      counters feeding CacheStats stay honest.
  prefdb-raw-syscall-server
      No raw read/write/accept/send/recv in src/server/ outside
      wire_io.cc: every transfer goes through the EINTR-safe helpers.
  prefdb-foreign-throw
      src/server/ and src/psql/ may only throw the prefdb exception
      family (psql/error.h + SyntaxError): the wire's closed ErrorCode
      vocabulary must stay closed.
  prefdb-float-eq
      No ==/!= on float/double in kernel/score-table code (src/exec/)
      outside the NaN-guard helpers in exec/float_eq.h, where each
      comparison's NaN contract is spelled out.
  prefdb-raw-delta-queue
      No touching a subscription's delta_queue_ outside src/ivm/: the
      queue's bound, overflow coalescing and close signaling are one
      invariant owned by ivm::SubscriptionState (TryPush / PushResync /
      Poll / Close). An engine- or server-side shortcut that pushes or
      drains the deque directly silently breaks the slow-subscriber
      resync contract.
  prefdb-raw-store-mutation
      No spelling of ColumnStore's mutating entry points (AppendRow /
      RemoveRows / MutableColumn) outside src/relation/ and the engine
      ingest path (src/engine/engine.cc). Columns are copy-on-write and
      shared across snapshots, views and zero-copy score tables; a stray
      mutation path that skips the per-column clone corrupts every
      borrower. Everything else mutates through Relation's API (Add /
      EraseRows).
  prefdb-row-cache
      No Relation::tuples() in the served paths (src/engine/, src/stats/,
      src/ivm/, src/server/, src/eval/ranked.cc): each call materializes
      every row of the relation as a Tuple from the columns (about
      50 MiB for a 100k-row, 12-column table), only to drop it again.
      Read cells (ValueAt, LoadCells / SelectWhere, the ColumnStore
      buffers) instead.
  prefdb-nolint-reason
      Every NOLINT must name its check(s) and carry an inline reason:
      "NOLINT(check): reason". All suppressions are counted and listed.

Engines: an AST engine on the libclang python bindings when importable
(CI installs python3-clang), else a token-level fallback that strips
comments/strings and pattern-matches — each rule below notes where the
fallback approximates. tools/lint/fixtures/ pins both engines to the
same verdicts via tests/lint_selftest.

Suppression: "// NOLINT(prefdb-<rule>): reason" on the finding line.
Fixtures may override their effective path for path-scoped rules with a
leading "// prefdb-lint: pretend-path=<path>" comment.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import re
import sys
from pathlib import Path

# The libclang AST engine is optional: this container/CI may or may not
# ship the bindings. The fallback engine is always available.
try:
    import clang.cindex as cindex  # type: ignore[import-not-found]

    HAVE_LIBCLANG = True
except ImportError:  # pragma: no cover - exercised only without libclang
    cindex = None  # type: ignore[assignment]
    HAVE_LIBCLANG = False


def ensure_libclang() -> bool:
    """True once libclang itself loads. Distro packages install the
    bindings with a versioned library name (libclang-18.so.1) the default
    lookup misses, so probe the common spellings before giving up."""
    if not HAVE_LIBCLANG:
        return False
    candidates = [None, "libclang-18.so.1", "libclang-18.so",
                  "libclang-17.so.1", "libclang-16.so.1",
                  "libclang-15.so.1", "libclang-14.so.1",
                  "libclang.so.1", "libclang.so"]
    for name in candidates:
        try:
            if name is not None:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(name)
            cindex.Index.create()
            return True
        except Exception:  # cindex.LibclangError, OSError on bad .so
            continue
    return False

CXX_SUFFIXES = {".cc", ".h"}

RULES = (
    "prefdb-downcast-preference",
    "prefdb-raw-mutex",
    "prefdb-raw-syscall-server",
    "prefdb-foreign-throw",
    "prefdb-float-eq",
    "prefdb-raw-delta-queue",
    "prefdb-raw-store-mutation",
    "prefdb-row-cache",
    "prefdb-nolint-reason",
)

# prefdb-foreign-throw: the closed exception family. Everything thrown in
# the server/psql reply paths must classify onto the wire's ErrorCode
# vocabulary by type, not by string-matching what() at the boundary.
ALLOWED_THROW_TYPES = {
    "SyntaxError",
    "NotFoundError",
    "BadArgumentError",
    "ProtocolError",
    "ServerError",
}

# prefdb-raw-syscall-server: transfers that must go through wire_io.cc's
# EINTR-safe wrappers.
RAW_SYSCALLS = {"read", "write", "accept", "send", "recv"}

# prefdb-float-eq: the one file allowed to compare floats directly.
FLOAT_EQ_ALLOWED_FILES = {"src/exec/float_eq.h"}

PRETEND_PATH_RE = re.compile(r"prefdb-lint:\s*pretend-path=(\S+)")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Nolint:
    """One parsed NOLINT comment (well-formed or not)."""

    def __init__(self, path: str, line: int, checks: str, reason: str,
                 well_formed: bool):
        self.path = path
        self.line = line
        self.checks = checks
        self.reason = reason
        self.well_formed = well_formed


class SourceFile:
    """One C++ source with comments/strings stripped for matching.

    `code` preserves byte offsets and newlines (stripped regions become
    spaces) so line numbers survive. `comments` maps line -> comment text
    for NOLINT handling.
    """

    def __init__(self, path: Path, repo_relative: str):
        self.path = path
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.code, self.comments = strip_comments_and_strings(self.text)
        self.lines = self.code.split("\n")
        self.effective_path = repo_relative
        for line_no in sorted(self.comments)[:5]:
            m = PRETEND_PATH_RE.search(self.comments[line_no])
            if m:
                self.effective_path = m.group(1)
                break
        self.nolints = parse_nolints(repo_relative, self.comments)
        # rule -> set of suppressed lines (only well-formed NOLINTs count).
        self.suppressed: dict[str, set[int]] = {}
        for nl in self.nolints:
            if not nl.well_formed:
                continue
            for check in re.split(r"[,\s]+", nl.checks):
                if check:
                    self.suppressed.setdefault(check, set()).add(nl.line)

    def is_suppressed(self, rule: str, line: int) -> bool:
        return line in self.suppressed.get(rule, set())


def strip_comments_and_strings(text: str):
    """Returns (code-with-blanks, {line: comment text})."""
    out = []
    comments: dict[int, str] = {}
    i = 0
    n = len(text)
    line = 1
    state = "code"
    comment_start_line = 1
    comment_buf: list[str] = []

    def note_comment(upto_line: int):
        if comment_buf:
            body = "".join(comment_buf)
            for off, part in enumerate(body.split("\n")):
                key = comment_start_line + off
                comments[key] = comments.get(key, "") + part
        comment_buf.clear()
        del upto_line

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw strings: R"delim( ... )delim"
                if out and out[-1] == "R" and (len(out) < 2 or not out[-2].isalnum()):
                    m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                    if m:
                        delim = m.group(1)
                        close = text.find(")" + delim + '"', i)
                        if close == -1:
                            close = n - 1
                        span = text[i:close + len(delim) + 2]
                        out.append('"')
                        for ch in span[1:]:
                            out.append("\n" if ch == "\n" else " ")
                        line += span.count("\n")
                        i += len(span)
                        continue
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                note_comment(line)
                state = "code"
                out.append(c)
            else:
                comment_buf.append(c)
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                note_comment(line)
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment_buf.append(c)
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                if nxt == "\n":
                    line += 1
                    out[-1] = " \n"
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append("\n" if c == "\n" else " ")
        if c == "\n":
            line += 1
        i += 1
    if state in ("line_comment", "block_comment"):
        note_comment(line)
    return "".join(out), comments


# Anchored to the start of the comment: a suppression is "// NOLINT...",
# not prose that merely mentions the word.
NOLINT_RE = re.compile(r"^\s*NOLINT(NEXTLINE|BEGIN|END)?(\([^)]*\))?(.*)")


def parse_nolints(path: str, comments: dict):
    found = []
    for line_no, comment in sorted(comments.items()):
        for m in NOLINT_RE.finditer(comment):
            variant = m.group(1) or ""
            checks = (m.group(2) or "").strip("()")
            trailer = m.group(3) or ""
            reason_m = re.match(r"\s*:\s*(\S.*)$", trailer)
            reason = reason_m.group(1).strip() if reason_m else ""
            # Policy: inline NOLINT or NOLINTNEXTLINE, with an explicit
            # check list and a ": reason" trailer. BEGIN/END blocks are
            # not allowed (they hide how much is suppressed).
            well_formed = bool(checks) and bool(reason) and variant in ("", "NEXTLINE")
            target_line = line_no + 1 if variant == "NEXTLINE" else line_no
            found.append(Nolint(path, target_line, checks, reason, well_formed))
    return found


# --------------------------------------------------------------------------
# Fallback (token-level) engine
# --------------------------------------------------------------------------

CAST_RE = re.compile(
    r"\b(static_cast|reinterpret_cast)\s*<\s*(?:const\s+)?(?:\w+::)*"
    r"(\w*Preference)\s*[*&]"
)
# A C-style cast to a *Preference pointer/reference: "(const T&)expr".
# A parameter declaration "(const T& name)" has an identifier before the
# closing paren and is not matched.
C_CAST_RE = re.compile(
    r"\(\s*(?:const\s+)?(?:\w+::)*(\w+Preference)\s*[*&]+\s*\)\s*[\w(&*]"
)
MUTEX_DECL_RE = re.compile(
    r"\b(?:std::)?(?:recursive_|timed_|shared_)*mutex\s+(\w+)\s*[;{=]"
)
ENGINE_GUARD_RE = re.compile(
    r"\b(?:std::)?(?:unique_lock|lock_guard|scoped_lock)\s*<[^>]*>\s*\w+\s*[({]\s*mu_"
)
THROW_RE = re.compile(r"\bthrow\s+([A-Za-z_][\w:]*)\s*[({]")
FLOAT_DECL_RE = re.compile(
    r"\b(?:const\s+)?(?:double|float)\s*[*&]?\s+(\w+)\s*[;,=({\[):]"
    r"|\bvector\s*<\s*(?:double|float)\s*>&?\s+(\w+)"
)
FLOAT_LITERAL = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)[fF]?"
COMPARE_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?|" + FLOAT_LITERAL + r")\s*([!=]=)\s*"
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?(?:\.\w+\(\))?|" + FLOAT_LITERAL + r")"
)
FLOAT_LITERAL_RE = re.compile("^" + FLOAT_LITERAL + "$")


def in_dir(path: str, prefix: str) -> bool:
    return path.startswith(prefix)


def delta_queue_findings(src: SourceFile):
    """prefdb-raw-delta-queue, shared by both engines: the member name is
    the syntactic marker (the deque is private to ivm::SubscriptionState,
    so any spelling of it outside src/ivm/ is a friend-style bypass or a
    copy of the bookkeeping — both forbidden)."""
    findings = []
    path = src.effective_path
    if in_dir(path, "src/ivm/"):
        return findings
    for line_no, text in enumerate(src.lines, 1):
        for _ in re.finditer(r"\bdelta_queue_\b", text):
            if not src.is_suppressed("prefdb-raw-delta-queue", line_no):
                findings.append(Finding(
                    path, line_no, "prefdb-raw-delta-queue",
                    "subscription delta queue touched outside src/ivm/; "
                    "go through ivm::SubscriptionState (TryPush/PushResync/"
                    "Poll/Close) so the overflow-coalescing contract holds"))
    return findings


def store_mutation_findings(src: SourceFile):
    """prefdb-raw-store-mutation, shared by both engines: the method names
    are the syntactic markers (MutableColumn is private to ColumnStore and
    AppendRow and RemoveRows are the store's only public mutators, so any
    spelling outside the allowed files is a friend-style bypass or a
    parallel copy of the COW bookkeeping — both break the shared-column
    invariant the zero-copy score tables borrow against)."""
    findings = []
    path = src.effective_path
    if in_dir(path, "src/relation/") or path == "src/engine/engine.cc":
        return findings
    for line_no, text in enumerate(src.lines, 1):
        for m in re.finditer(r"\b(AppendRow|RemoveRows|MutableColumn)\b", text):
            if not src.is_suppressed("prefdb-raw-store-mutation", line_no):
                findings.append(Finding(
                    path, line_no, "prefdb-raw-store-mutation",
                    f"ColumnStore::{m.group(1)} touched outside "
                    "src/relation/ and the engine ingest path; mutate "
                    "through Relation (Add/EraseRows) so per-column "
                    "COW protects shared snapshots and zero-copy tables"))
    return findings


ROW_CACHE_DIRS = ("src/engine/", "src/stats/", "src/ivm/", "src/server/")
ROW_CACHE_FILES = {"src/eval/ranked.cc"}


def row_cache_findings(src: SourceFile):
    """prefdb-row-cache, shared by both engines: the accessor's spelling
    is the marker — any tuples() call in a served path materializes every
    row of the relation on each call, the whole-row copy the columnar
    store exists to avoid."""
    findings = []
    path = src.effective_path
    if not (any(in_dir(path, d) for d in ROW_CACHE_DIRS)
            or path in ROW_CACHE_FILES):
        return findings
    for line_no, text in enumerate(src.lines, 1):
        for _ in re.finditer(r"\btuples\s*\(\s*\)", text):
            if not src.is_suppressed("prefdb-row-cache", line_no):
                findings.append(Finding(
                    path, line_no, "prefdb-row-cache",
                    "Relation::tuples() on a served path materializes "
                    "every row as a Tuple on each call; read cells "
                    "(ValueAt, LoadCells/SelectWhere, ColumnStore buffers) "
                    "instead"))
    return findings


def fallback_lint(src: SourceFile):
    findings = []
    path = src.effective_path

    def emit(line: int, rule: str, message: str):
        if not src.is_suppressed(rule, line):
            findings.append(Finding(path, line, rule, message))

    # --- prefdb-downcast-preference (whole tree)
    for line_no, text in enumerate(src.lines, 1):
        for m in CAST_RE.finditer(text):
            emit(line_no, "prefdb-downcast-preference",
                 f"{m.group(1)} to polymorphic type {m.group(2)}; "
                 "use dynamic_cast or virtual dispatch")
        for m in C_CAST_RE.finditer(text):
            emit(line_no, "prefdb-downcast-preference",
                 f"C-style cast to polymorphic type {m.group(1)}; "
                 "use dynamic_cast or virtual dispatch")

    # --- prefdb-raw-mutex (whole tree)
    mutex_names = set()
    for m in MUTEX_DECL_RE.finditer(src.code):
        mutex_names.add(m.group(1))
    mutex_names.add("mu_")  # the Engine mutex, wherever it is touched
    for line_no, text in enumerate(src.lines, 1):
        for m in re.finditer(r"\b(\w+)\s*(?:\.|->)\s*(lock|unlock)\s*\(", text):
            if m.group(1) in mutex_names:
                emit(line_no, "prefdb-raw-mutex",
                     f"bare .{m.group(2)}() on std::mutex '{m.group(1)}'; "
                     "hold it through an RAII guard")
        if in_dir(path, "src/engine/"):
            for m in ENGINE_GUARD_RE.finditer(text):
                # Engine::Lock()'s own implementation is the
                # try_to_lock-then-block form; everything else must call it.
                if "try_to_lock" not in text:
                    emit(line_no, "prefdb-raw-mutex",
                         "direct guard on the Engine mutex; acquire it via "
                         "Engine::Lock() so the contention counters count it")

    # --- prefdb-raw-syscall-server
    if in_dir(path, "src/server/") and Path(path).name != "wire_io.cc":
        for line_no, text in enumerate(src.lines, 1):
            for m in re.finditer(r"(^|[^\w.>:])(?:::)?(" +
                                 "|".join(sorted(RAW_SYSCALLS)) + r")\s*\(",
                                 text):
                emit(line_no, "prefdb-raw-syscall-server",
                     f"raw {m.group(2)}() outside wire_io.cc; use the "
                     "EINTR-safe helpers in server/wire_io.h")

    # --- prefdb-foreign-throw
    if in_dir(path, "src/server/") or in_dir(path, "src/psql/"):
        for line_no, text in enumerate(src.lines, 1):
            for m in THROW_RE.finditer(text):
                type_name = m.group(1).split("::")[-1]
                if type_name not in ALLOWED_THROW_TYPES:
                    emit(line_no, "prefdb-foreign-throw",
                         f"throw of non-prefdb type {m.group(1)}; the reply "
                         "path's ErrorCode vocabulary is closed (psql/error.h)")

    # --- prefdb-float-eq
    # Fallback approximation (noted): an operand counts as floating when
    # it is a float literal or its base identifier is declared
    # float/double (or vector<float/double>) in this file.
    if in_dir(path, "src/exec/") and path not in FLOAT_EQ_ALLOWED_FILES:
        float_names = set()
        for m in FLOAT_DECL_RE.finditer(src.code):
            float_names.add(m.group(1) or m.group(2))
        float_names.discard(None)

        def is_float_operand(expr: str) -> bool:
            if FLOAT_LITERAL_RE.match(expr):
                return True
            base = re.match(r"([A-Za-z_]\w*)", expr)
            return bool(base) and base.group(1) in float_names

        for line_no, text in enumerate(src.lines, 1):
            for m in COMPARE_RE.finditer(text):
                if is_float_operand(m.group(1)) or is_float_operand(m.group(3)):
                    emit(line_no, "prefdb-float-eq",
                         f"float {m.group(2)} comparison in kernel code; "
                         "route it through a NaN-guard helper "
                         "(exec/float_eq.h)")

    # --- prefdb-raw-delta-queue (whole tree outside src/ivm/)
    findings.extend(delta_queue_findings(src))

    # --- prefdb-raw-store-mutation (whole tree outside src/relation/)
    findings.extend(store_mutation_findings(src))

    # --- prefdb-row-cache (served paths)
    findings.extend(row_cache_findings(src))

    return findings


# --------------------------------------------------------------------------
# AST engine (libclang)
# --------------------------------------------------------------------------


def clang_lint(src: SourceFile, extra_args):
    """AST-based checks. Falls back silently per-file on parse disasters:
    a TU that cannot parse at all is reported as a finding, never skipped.
    """
    findings = []
    path = src.effective_path

    def emit(line: int, rule: str, message: str):
        if not src.is_suppressed(rule, line):
            findings.append(Finding(path, line, rule, message))

    index = cindex.Index.create()
    args = ["-x", "c++", "-std=c++17"] + list(extra_args)
    tu = index.parse(str(src.path), args=args,
                     options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    fatal = [d for d in tu.diagnostics if d.severity >= cindex.Diagnostic.Fatal]
    if fatal:
        # Unparseable TUs (missing includes etc.) still get the
        # token-level verdicts rather than a silent pass.
        return fallback_lint(src)

    in_server = in_dir(path, "src/server/")
    in_psql = in_dir(path, "src/psql/")
    in_exec = in_dir(path, "src/exec/") and path not in FLOAT_EQ_ALLOWED_FILES
    check_syscalls = in_server and Path(path).name != "wire_io.cc"
    main_file = str(src.path)

    def type_names(t):
        """Pointee/base record spelling for a (possibly ptr/ref) type."""
        seen = t
        for _ in range(4):
            pointee = seen.get_pointee()
            if pointee.spelling:
                seen = pointee
            else:
                break
        return seen.spelling.replace("const ", "").strip()

    def is_floating(t):
        canon = t.get_canonical().spelling.replace("const ", "").strip()
        return canon in ("float", "double", "long double")

    def walk(cursor):
        for node in cursor.get_children():
            loc = node.location
            if loc.file is None or str(loc.file) != main_file:
                # Never descend into includes; fixtures/TUs own files only.
                if node.kind in (cindex.CursorKind.NAMESPACE,
                                 cindex.CursorKind.TRANSLATION_UNIT):
                    walk(node)
                continue
            line = loc.line
            k = node.kind
            if k in (cindex.CursorKind.CXX_STATIC_CAST_EXPR,
                     cindex.CursorKind.CXX_REINTERPRET_CAST_EXPR,
                     cindex.CursorKind.CSTYLE_CAST_EXPR):
                target = type_names(node.type)
                base = target.split("::")[-1].split("<")[0].strip()
                if base.endswith("Preference"):
                    kind_name = ("C-style cast"
                                 if k == cindex.CursorKind.CSTYLE_CAST_EXPR
                                 else "static_cast")
                    emit(line, "prefdb-downcast-preference",
                         f"{kind_name} to polymorphic type {base}; "
                         "use dynamic_cast or virtual dispatch")
            elif k == cindex.CursorKind.CALL_EXPR:
                callee = node.spelling
                if callee in ("lock", "unlock"):
                    children = list(node.get_children())
                    if children:
                        recv = type_names(children[0].type)
                        if re.search(r"\bmutex\b", recv) and "unique_lock" not in recv \
                                and "lock_guard" not in recv:
                            emit(line, "prefdb-raw-mutex",
                                 f"bare .{callee}() on {recv}; hold it "
                                 "through an RAII guard")
                if check_syscalls and callee in RAW_SYSCALLS:
                    children = list(node.get_children())
                    is_member = children and children[0].kind in (
                        cindex.CursorKind.MEMBER_REF_EXPR,)
                    if not is_member:
                        emit(line, "prefdb-raw-syscall-server",
                             f"raw {callee}() outside wire_io.cc; use the "
                             "EINTR-safe helpers in server/wire_io.h")
            elif k == cindex.CursorKind.CXX_THROW_EXPR and (in_server or in_psql):
                children = list(node.get_children())
                if children:  # bare `throw;` rethrow has no operand
                    thrown = type_names(children[0].type)
                    base = thrown.split("::")[-1].split("<")[0].strip()
                    if base and base not in ALLOWED_THROW_TYPES:
                        emit(line, "prefdb-foreign-throw",
                             f"throw of non-prefdb type {thrown}; the reply "
                             "path's ErrorCode vocabulary is closed "
                             "(psql/error.h)")
            elif k == cindex.CursorKind.BINARY_OPERATOR and in_exec:
                children = list(node.get_children())
                if len(children) == 2:
                    op_tokens = {t.spelling for t in node.get_tokens()}
                    if ("==" in op_tokens or "!=" in op_tokens) and (
                            is_floating(children[0].type)
                            or is_floating(children[1].type)):
                        # The token set may include ==/!= from subexprs;
                        # the float-operand requirement keeps this tight.
                        emit(line, "prefdb-float-eq",
                             "float ==/!= comparison in kernel code; route "
                             "it through a NaN-guard helper "
                             "(exec/float_eq.h)")
            walk(node)

    walk(tu.cursor)

    # Engine-mutex discipline stays token-level in both engines: the
    # rule keys on the try_to_lock acquisition form, a syntactic marker.
    if in_dir(path, "src/engine/"):
        for line_no, text in enumerate(src.lines, 1):
            for _ in ENGINE_GUARD_RE.finditer(text):
                if "try_to_lock" not in text:
                    emit(line_no, "prefdb-raw-mutex",
                         "direct guard on the Engine mutex; acquire it via "
                         "Engine::Lock() so the contention counters count it")

    # The delta-queue, store-mutation and row-cache rules are likewise
    # name-marker checks — identical in both engines.
    findings.extend(delta_queue_findings(src))
    findings.extend(store_mutation_findings(src))
    findings.extend(row_cache_findings(src))
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def collect_files(root: Path, paths):
    files = []
    for p in paths:
        candidate = (root / p) if not Path(p).is_absolute() else Path(p)
        if candidate.is_dir():
            files.extend(sorted(candidate.rglob("*.cc")))
            files.extend(sorted(candidate.rglob("*.h")))
        elif candidate.suffix in CXX_SUFFIXES:
            files.append(candidate)
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src bench examples tests)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--engine", choices=["auto", "clang", "fallback"],
                    default="auto")
    ap.add_argument("--include", action="append", default=[],
                    help="extra -I directories for the AST engine")
    ap.add_argument("--list-nolint", action="store_true",
                    help="only print the NOLINT inventory")
    args = ap.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]
    paths = args.paths or ["src", "bench", "examples", "tests"]

    engine = args.engine
    if engine == "auto":
        engine = "clang" if ensure_libclang() else "fallback"
    if engine == "clang" and not ensure_libclang():
        print("prefdb-lint: --engine clang but python libclang bindings "
              "are unavailable", file=sys.stderr)
        return 2

    include_args = [f"-I{root / 'src'}"]
    for inc in args.include:
        include_args.append(f"-I{inc}")

    findings = []
    nolints = []
    for path in collect_files(root, paths):
        try:
            rel = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(path)
        src = SourceFile(path, rel)
        nolints.extend(src.nolints)
        for nl in src.nolints:
            if not nl.well_formed:
                findings.append(Finding(
                    nl.path, nl.line, "prefdb-nolint-reason",
                    "NOLINT without '(check): reason' — every suppression "
                    "names its check and justifies itself inline"))
        if args.list_nolint:
            continue
        if engine == "clang":
            findings.extend(clang_lint(src, include_args))
        else:
            findings.extend(fallback_lint(src))

    # The suppression inventory is part of every run's output: NOLINTs are
    # counted and listed so they cannot accumulate silently.
    well_formed = [nl for nl in nolints if nl.well_formed]
    if well_formed or args.list_nolint:
        print(f"prefdb-lint: {len(well_formed)} NOLINT suppression(s):")
        for nl in well_formed:
            print(f"  {nl.path}:{nl.line}: NOLINT({nl.checks}): {nl.reason}")
    if args.list_nolint:
        return 0

    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding.render())
    if findings:
        print(f"prefdb-lint: {len(findings)} finding(s) [{engine} engine]",
              file=sys.stderr)
        return 1
    print(f"prefdb-lint: clean [{engine} engine]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
