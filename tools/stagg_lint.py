#!/usr/bin/env python3
"""stagg_lint — project-specific lint for invariants clang-tidy can't see.

Rules (each has an id; suppress a finding with a trailing or preceding
`// stagg-lint: allow(<rule-id>) <one-line justification>` comment — the
justification is mandatory):

  single-writer    TraceStore write-side methods (add_state, seal_chunk,
                   evict_before, adopt_chunk, spill_cold, pin, pin_all,
                   set_compression, enable_spill, set_window,
                   add_resource) may only be called from the files/functions
                   that own a store's single-writer side: the store itself,
                   the Trace value facade, binary_io's fresh-store readers,
                   SessionManager's central-ingest path, SlidingWindowSession
                   (exclusive stores), IngestPipeline's seal worker, and the
                   ShardedTraceStore facade (which routes each write to the
                   owning shard from exactly one task — single writer *per
                   shard*).  Receivers are recognized syntactically
                   (identifiers containing `store` or `shard`, optionally
                   subscripted like `shards_[k]`, or `snapshot`); new
                   library code that mutates a shared or per-shard store
                   trips this rule.

  queue-under-lock A blocking BoundedQueue push()/pop() while a mutex guard
                   (std::lock_guard / std::unique_lock / std::scoped_lock)
                   is live in the enclosing scope.  Blocking on a queue edge
                   while holding a lock turns backpressure into deadlock;
                   use try_push/try_pop, or release the guard first
                   (lock.unlock() clears the rule).

  narrowing-cast   A narrowing integer cast (static_cast or C-style to a
                   sub-64-bit integer type) inside the codec/decoder
                   encode paths (src/trace/compression.cpp,
                   src/trace/binary_io.cpp).  Use stagg::narrow<T>() (value-
                   checked in audit builds) or stagg::wrap_u8() (documented
                   truncation) from common/contract.hpp instead, so every
                   lossy conversion in the on-disk formats is deliberate.

  raw-intrinsic    A raw SIMD intrinsic call (x86 `_mm*_*`/`_mm256_*` or
                   NEON `vld1q_*`-family) anywhere except
                   src/common/simd.hpp.  All vector code goes through the
                   fixed-width wrappers so every kernel keeps a scalar twin,
                   the STAGG_SIMD=OFF build stays complete, and the
                   bit-identity contract is auditable in one file.

Modes:
  tools/stagg_lint.py                 lint src/ (default)
  tools/stagg_lint.py --headers       also run header self-containment
                                      (delegates to check_headers.py)
  tools/stagg_lint.py FILE...         lint specific files (tests use this)

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --- Rule: single-writer ----------------------------------------------------

WRITE_METHODS = (
    "add_state",
    "seal_chunk",
    "evict_before",
    "adopt_chunk",
    "spill_cold",
    "pin",
    "pin_all",
    "set_compression",
    "enable_spill",
    "set_window",
    "add_resource",
)

# Call sites allowed to mutate a TraceStore.  Entries are repo-relative file
# paths; the optional function set restricts the allowance to specific
# enclosing functions (None = whole file).  This list IS the single-writer
# policy: growing it is a reviewed decision, not a local convenience.
SINGLE_WRITER_ALLOWLIST: dict[str, set[str] | None] = {
    # The store's own implementation.
    "src/trace/trace_store.cpp": None,
    "src/trace/trace_store.hpp": None,
    # Value-semantic facade: a Trace owns its store exclusively.
    "src/trace/trace.hpp": None,
    "src/trace/trace.cpp": None,
    # Readers build *fresh* stores no session has seen yet.
    "src/trace/binary_io.cpp": None,
    # The sharded facade: every write routes to the owning shard from
    # exactly one task (the single-writer rule holds *per shard*); the
    # audit()/read side never mutates.
    "src/trace/sharded_store.cpp": None,
    # The central-ingest path: the manager owns the shared store's write side.
    "src/core/session_manager.cpp": None,
    # Exclusive-store sessions own their store (shared attaches are read-only
    # by construction; the ctor enforces it).
    "src/core/sliding_window.cpp": None,
    # The pipeline's sole TraceStore writer is the seal worker.
    "src/core/ingest_pipeline.cpp": {"seal_worker"},
}

# NB: `\w*` on both sides may be empty — a bare `store->` or `store_->`
# receiver must match (requiring a prefix let the two most common receiver
# spellings through silently).  Shard receivers (`sharded_`, `shards_[k]`,
# any identifier containing shard, optionally subscripted) are store
# handles too: a cross-shard write from the wrong task is exactly the
# violation this rule exists to catch.
STORE_RECEIVER = re.compile(
    r"\b(?P<recv>\w*(?:store|Store|shard|Shard)\w*(?:\[[^\]]*\])?|snapshot)"
    r"(?:\.|->)"
    r"(?P<method>" + "|".join(WRITE_METHODS) + r")\s*\("
)

# Matches `TraceStore::method(` style qualified definitions — not calls.
QUALIFIED_DEF = re.compile(r"\bTraceStore::\w+\s*\(")

FUNC_DEF = re.compile(
    r"^[\w:<>,&*\s\[\]]*?\b(?:[A-Za-z_]\w*::)*(?P<name>[A-Za-z_]\w*)\s*\([^;]*$"
    r"|^[\w:<>,&*\s\[\]]*?\b(?:[A-Za-z_]\w*::)*(?P<name2>[A-Za-z_]\w*)\s*\(.*\)"
    r"\s*(?:const|noexcept|override|final|\s)*\{"
)

SUPPRESS = re.compile(r"//\s*stagg-lint:\s*allow\((?P<rules>[\w\-, ]+)\)\s*(?P<why>.*)")

NARROW_CAST = re.compile(
    r"static_cast<\s*(?:std::)?(?:u?int(?:8|16|32)_t|int|unsigned(?:\s+int)?|"
    r"short|char|signed\s+char|unsigned\s+char)\s*>"
    r"|\((?:std::)?u?int(?:8|16|32)_t\)\s*[\w(]"
)

NARROWING_FILES = {
    "src/trace/compression.cpp",
    "src/trace/binary_io.cpp",
}

# --- Rule: raw-intrinsic ----------------------------------------------------

# x86 SSE/AVX (`_mm_*`, `_mm256_*`, `_mm512_*`) and the common ARM NEON
# intrinsic families.  Matches calls, not the header names.
RAW_INTRINSIC = re.compile(
    r"\b(?P<name>_mm(?:256|512)?_[a-z0-9_]+"
    r"|v(?:ld1|st1|add|sub|mul|dup|mov|min|max|ceq|cge|cgt|shl|shr|sra"
    r"|and|orr|eor|get|set|reinterpret|cvt)q?_[a-z0-9_]+)\s*\("
)

# The dispatch seam is the only place allowed to spell raw intrinsics.
RAW_INTRINSIC_ALLOWED_FILES = {
    "src/common/simd.hpp",
}

LOCK_DECL = re.compile(
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b[^;]*?\b(?P<var>[A-Za-z_]\w*)\s*[({]"
)
LOCK_RELEASE = re.compile(r"\b(?P<var>[A-Za-z_]\w*)\.unlock\s*\(\s*\)")
BLOCKING_QUEUE_OP = re.compile(
    r"\b(?P<recv>[\w\]\[\.\->]*(?:queue|Queue)\w*(?:\[[^\]]*\])?)\s*"
    r"(?:\.|->)\s*(?P<op>push|pop)\s*\("
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings_and_comments(line: str) -> tuple[str, str | None]:
    """Returns (code, suppression-comment-or-None) for one source line.

    String/char literals are blanked so their contents can't trip rules;
    `//` comments are removed from the code but searched for suppressions.
    Block comments are handled crudely (line-local only) — good enough for
    this codebase's style.
    """
    out = []
    i, n = 0, len(line)
    comment = None
    in_str: str | None = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            out.append(" ")
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            comment = line[i:]
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            end = line.find("*/", i + 2)
            if end == -1:
                comment = line[i:]
                break
            i = end + 2
            continue
        out.append(c)
        i += 1
    return "".join(out), comment


def suppressions_for(comment: str | None) -> set[str]:
    if not comment:
        return set()
    m = SUPPRESS.search(comment)
    if not m:
        return set()
    if not m.group("why").strip():
        # A suppression without a justification suppresses nothing.
        return set()
    return {r.strip() for r in m.group("rules").split(",") if r.strip()}


def current_function(code_lines: list[str], upto: int) -> str:
    """Best-effort name of the function containing line index `upto`."""
    depth = 0
    for i in range(upto, -1, -1):
        line = code_lines[i]
        depth += line.count("}") - line.count("{")
        if depth < 0:
            # `i` opened a scope still unclosed at `upto` — find its function
            # header by scanning up for a `name(...)` before this `{`.
            for j in range(i, max(-1, i - 8), -1):
                m = re.search(r"\b([A-Za-z_~]\w*)\s*\([^;{]*\)?\s*"
                              r"(?:const|noexcept|override|final|->\s*[\w:<>]+|\s)*$",
                              code_lines[j].split("{")[0])
                if m:
                    return m.group(1)
            depth = 0  # keep scanning upward for an outer scope
    return "<file-scope>"


def lint_file(path: str, rel: str, findings: list[Finding]) -> None:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        findings.append(Finding(rel, 0, "io", f"cannot read: {e}"))
        return

    code_lines: list[str] = []
    comments: list[str | None] = []
    for line in raw_lines:
        code, comment = strip_strings_and_comments(line)
        code_lines.append(code)
        comments.append(comment)

    allow_file = SINGLE_WRITER_ALLOWLIST.get(rel)
    file_allowed_everywhere = rel in SINGLE_WRITER_ALLOWLIST and allow_file is None

    # Live lock guards: list of (brace_depth_at_decl, varname).
    live_locks: list[tuple[int, str]] = []
    depth = 0

    for idx, code in enumerate(code_lines):
        lineno = idx + 1
        suppressed = suppressions_for(comments[idx])
        if idx + 1 < len(comments):
            pass
        prev_suppressed = suppressions_for(comments[idx - 1]) if idx > 0 else set()
        allowed = suppressed | prev_suppressed

        # --- single-writer ---------------------------------------------------
        if not file_allowed_everywhere:
            for m in STORE_RECEIVER.finditer(code):
                if "single-writer" in allowed:
                    continue
                func = current_function(code_lines, idx)
                if allow_file is not None and func in allow_file:
                    continue
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        "single-writer",
                        f"TraceStore write-side call `{m.group('recv')}"
                        f"->{m.group('method')}()` outside the single-writer "
                        f"allowlist (enclosing function: {func}); only "
                        "SessionManager's central-ingest path and "
                        "IngestPipeline's seal worker may mutate a shared "
                        "store",
                    )
                )

        # --- queue-under-lock ------------------------------------------------
        if rel != "src/common/bounded_queue.hpp":
            for m in LOCK_DECL.finditer(code):
                live_locks.append((depth, m.group("var")))
            for m in LOCK_RELEASE.finditer(code):
                live_locks = [lk for lk in live_locks if lk[1] != m.group("var")]
            if live_locks:
                for m in BLOCKING_QUEUE_OP.finditer(code):
                    if "queue-under-lock" in allowed:
                        continue
                    findings.append(
                        Finding(
                            rel,
                            lineno,
                            "queue-under-lock",
                            f"blocking BoundedQueue `{m.group('op')}()` on "
                            f"`{m.group('recv')}` while lock guard "
                            f"`{live_locks[-1][1]}` is live — blocking a "
                            "backpressure edge under a mutex can deadlock "
                            "the pipeline; use try_push/try_pop or release "
                            "the guard first",
                        )
                    )

        # --- narrowing-cast --------------------------------------------------
        if rel in NARROWING_FILES:
            for m in NARROW_CAST.finditer(code):
                if "narrowing-cast" in allowed:
                    continue
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        "narrowing-cast",
                        f"narrowing integer cast `{m.group(0)}` in a "
                        "codec/decoder path; use stagg::narrow<T>() "
                        "(value-checked) or stagg::wrap_u8() (documented "
                        "truncation) from common/contract.hpp",
                    )
                )

        # --- raw-intrinsic ---------------------------------------------------
        if rel not in RAW_INTRINSIC_ALLOWED_FILES:
            for m in RAW_INTRINSIC.finditer(code):
                if "raw-intrinsic" in allowed:
                    continue
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        "raw-intrinsic",
                        f"raw SIMD intrinsic `{m.group('name')}` outside "
                        "src/common/simd.hpp; use the fixed-width wrappers "
                        "(simd::f64x4 et al.) so the kernel keeps a scalar "
                        "twin and the STAGG_SIMD=OFF build stays complete",
                    )
                )

        # Brace depth update + lock-guard scope expiry.
        depth += code.count("{") - code.count("}")
        live_locks = [lk for lk in live_locks if lk[0] <= depth]


def default_targets() -> list[str]:
    targets = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in sorted(filenames):
            if name.endswith((".cpp", ".hpp")):
                targets.append(os.path.join(dirpath, name))
    return sorted(targets)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--headers", action="store_true",
                        help="also check header self-containment")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repo root used to relativize paths "
                             "(tests point this at fixture trees)")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    files = [os.path.abspath(f) for f in args.files] or default_targets()

    findings: list[Finding] = []
    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        lint_file(path, rel, findings)

    for f in findings:
        print(f, file=sys.stderr)

    header_rc = 0
    if args.headers:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import check_headers  # noqa: E402

        header_rc = check_headers.main([])

    if findings:
        print(f"stagg_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if header_rc != 0:
        return header_rc
    print(f"stagg_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
