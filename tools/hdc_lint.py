#!/usr/bin/env python3
# Copyright (c) hdc authors. Apache-2.0 license.
"""hdc_lint: AST-free source linter for project invariants.

Encodes the invariants that generic tools (clang-tidy, the compiler) cannot
know, scanning every C++ source under src/. Each rule is a pure function of
the preprocessed text (comments and string/char literals blanked), so the
linter needs no compiler, no compilation database, and runs in milliseconds
as a tier-1 ctest and a CI step.

Rules
  clock-discipline   std::chrono::*_clock::now() / sleep_for / sleep_until
                     appear only in src/util/clock.* — everything else must
                     take an injected hdc::Clock so FakeClock tests stay
                     deterministic.
  thread-discipline  raw std::thread appears only in util/worker_pool plus
                     an explicit allowlist (the epoll endpoint's IO/dispatch
                     threads, multi-crawl lanes).
  mutex-discipline   raw std::mutex / condition_variable / lock_guard /
                     unique_lock / scoped_lock appear only in
                     util/thread_annotations.h — locked state must use the
                     annotated hdc::Mutex so -Wthread-safety sees it.
  include-layers     a file in layer L includes project headers only from
                     layers at or below L in HDC_LAYER_ORDER — the
                     header-level mirror of cmake/HdcLayer.cmake, which only
                     checks declared link edges.
  status-discard     a call to a function declared as returning hdc::Status,
                     written as a bare expression statement, is an ignored
                     error. Backstops [[nodiscard]] for compilers that do
                     not diagnose the class-level attribute.
  issue-path         no server overrides Issue(): IssueBatch is the one
                     entry point a HiddenDbServer implements, and Issue is
                     server.h's one-member wrapper around it.
  round-boundary     RoundSize( appears only in core/frontier.cc and
                     core/crawl_context.*: the frontier driver is the one
                     round loop, so round sizing and the frontier-log commit
                     at each round boundary stay one edit.

Exit status: 0 clean, 1 violations found, 2 usage error.
"""

import argparse
import os
import re
import sys

# --- configuration ----------------------------------------------------------

# Mirrors HDC_LAYER_ORDER in cmake/HdcLayer.cmake (lowest first). A file in
# src/<dir>/ may include "dir2/..." only when LAYERS[dir2] <= LAYERS[dir].
LAYERS = {
    "util": 0,
    "data": 1,
    "query": 2,
    "server": 3,
    "net": 4,
    "gen": 5,
    "core": 6,
    "analytics": 7,
}

# Files allowed to read the real clock / sleep: the Clock implementation.
CLOCK_ALLOWLIST = {
    "src/util/clock.h",
    "src/util/clock.cc",
}

# Files allowed to spawn std::thread: the pool itself plus the deliberate
# thread owners (each documents why the pool is not usable there).
THREAD_ALLOWLIST = {
    "src/util/worker_pool.h",
    "src/util/worker_pool.cc",
    "src/net/service_endpoint.h",   # IO thread + dispatch pool members
    "src/net/service_endpoint.cc",
    "src/core/multi_crawl.cc",      # per-job crawl lanes + metrics monitor
}

# Files allowed raw std:: locking primitives: the annotated wrappers.
MUTEX_ALLOWLIST = {
    "src/util/thread_annotations.h",
}

# Files allowed to call CrawlContext::RoundSize: the one round loop and
# the context that defines it.
ROUND_ALLOWLIST = {
    "src/core/frontier.cc",
    "src/core/crawl_context.h",
    "src/core/crawl_context.cc",
}

CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"
    r"|\bsleep_for\s*\(|\bsleep_until\s*\(")
THREAD_RE = re.compile(r"\bstd\s*::\s*thread\b")
MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")
ROUND_RE = re.compile(r"\bRoundSize\s*\(")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

# A function (or method) declared/defined as returning Status by value.
STATUS_DECL_RE = re.compile(
    r"\bStatus\s+(?:[A-Za-z_]\w*\s*::\s*)?([A-Za-z_]\w*)\s*\(")

# The same name declared elsewhere with a non-Status return type. A
# name-based check cannot resolve the receiver's type, so any name that is
# ambiguous across the tree (e.g. a void Close() next to a Status Close())
# is dropped from the status-discard rule rather than guessed at.
NON_STATUS_DECL_RE = re.compile(
    r"\b(?:void|bool|int|unsigned|long|float|double|auto|size_t|"
    r"uint8_t|uint16_t|uint32_t|uint64_t|int32_t|int64_t)\s+"
    r"(?:[A-Za-z_]\w*\s*::\s*)?([A-Za-z_]\w*)\s*\(")

# A bare expression statement whose value is a call: optional receiver
# chain, the call itself, `;`, end of line. Anything consuming the value
# (return / assignment / if / (void) / a wrapping macro) fails this shape.
CALL_STMT_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\s*(?:\.|->|::)\s*[A-Za-z_]\w*)*\s*(?:\.|->|::)\s*)?"
    r"([A-Za-z_]\w*)\s*\(.*\)\s*;\s*$")

# An override of the one-member wrapper, `Issue(<params>) [const] override`,
# possibly spread over several lines. `\bIssue\s*\(` never matches
# IssueBatch, and a call (`base_->Issue(q, r);`) never reaches `override`.
ISSUE_OVERRIDE_RE = re.compile(
    r"\bIssue\s*\([^;{}]*\)\s*(?:const\s*)?override\b")

CPP_SUFFIXES = (".h", ".hpp", ".cc", ".cpp", ".cxx")


# --- text preprocessing -----------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks comments and string/char literal contents, preserving line
    structure so reported line numbers match the file on disk."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(c)
                i += 1
            elif c == "'":
                state = "char"
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


# --- rules ------------------------------------------------------------------

def relpath(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


def layer_of(rel):
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src" and parts[1] in LAYERS:
        return parts[1]
    return None


def check_pattern_rule(rel, lines, regex, allowlist, rule, what, findings):
    if rel in allowlist:
        return
    for lineno, line in enumerate(lines, 1):
        if regex.search(line):
            findings.append((rel, lineno, rule,
                             "%s is forbidden here (%s)" % (what, rule)))


def check_includes(rel, raw_lines, stripped_lines, findings):
    layer = layer_of(rel)
    if layer is None:
        return
    rank = LAYERS[layer]
    for lineno, line in enumerate(raw_lines, 1):
        # The include path is a string literal, so it must be read from the
        # raw line; the stripped line gates out commented-out directives.
        if not stripped_lines[lineno - 1].lstrip().startswith("#"):
            continue
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target in LAYERS and LAYERS[target] > rank:
            findings.append((
                rel, lineno, "include-layers",
                "layer '%s' (rank %d) must not include from layer '%s' "
                "(rank %d); see cmake/HdcLayer.cmake" %
                (layer, rank, target, LAYERS[target])))


def collect_status_functions(files):
    """Names declared anywhere in src/ as returning Status by value, minus
    names that are ambiguous (also declared with a non-Status return)."""
    names = set()
    non_status = set()
    for _, _, stripped in files:
        for m in STATUS_DECL_RE.finditer(stripped):
            names.add(m.group(1))
        for m in NON_STATUS_DECL_RE.finditer(stripped):
            non_status.add(m.group(1))
    # Factory names mint a Status on purpose; discarding the *construction*
    # of a Status (e.g. in a test of the factories) is not an ignored error
    # from a fallible call.
    names.discard("OK")
    return names - non_status


def check_status_discard(rel, lines, status_names, findings):
    prev = ""  # last non-blank line before the current one
    for lineno, line in enumerate(lines, 1):
        stripped_line = line.strip()
        if not stripped_line:
            continue
        m = CALL_STMT_RE.match(line)
        at_statement_start = (
            prev == "" or prev.endswith((";", "{", "}", ":", ")")) or
            prev in ("else", "do"))
        prev = stripped_line
        if not m or not at_statement_start:
            # A continuation line (previous line ended mid-expression, e.g.
            # `Status s =`) can look like a call statement; the value is
            # consumed by the construct it continues.
            continue
        name = m.group(1)
        if name not in status_names:
            continue
        # Declarations look like calls: `Status Foo(int bar);` — the line
        # itself declares, not discards.
        if re.match(r"^\s*(?:virtual\s+)?(?:static\s+)?Status\b", line):
            continue
        findings.append((
            rel, lineno, "status-discard",
            "result of Status-returning '%s(...)' is discarded; check it, "
            "propagate it, or cast to (void) for a best-effort call" % name))


def check_issue_override(rel, stripped, findings):
    for m in ISSUE_OVERRIDE_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        findings.append((
            rel, lineno, "issue-path",
            "Issue(...) override is forbidden (issue-path): implement "
            "IssueBatch; Issue is server.h's one-member wrapper"))


# --- driver -----------------------------------------------------------------

def gather_files(root):
    files = []
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        raise SystemExit("hdc_lint: no src/ under --root %r" % root)
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith(CPP_SUFFIXES):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
            files.append((relpath(path, root), text,
                          strip_comments_and_strings(text)))
    return files


def run(root):
    files = gather_files(root)
    status_names = collect_status_functions(files)
    findings = []
    for rel, raw, stripped in files:
        lines = stripped.split("\n")
        check_pattern_rule(rel, lines, CLOCK_RE, CLOCK_ALLOWLIST,
                           "clock-discipline",
                           "direct clock read / sleep (inject hdc::Clock)",
                           findings)
        check_pattern_rule(rel, lines, THREAD_RE, THREAD_ALLOWLIST,
                           "thread-discipline",
                           "raw std::thread (use WorkerPool or allowlist)",
                           findings)
        check_pattern_rule(rel, lines, MUTEX_RE, MUTEX_ALLOWLIST,
                           "mutex-discipline",
                           "raw std locking primitive (use hdc::Mutex)",
                           findings)
        check_pattern_rule(rel, lines, ROUND_RE, ROUND_ALLOWLIST,
                           "round-boundary",
                           "a round loop outside the frontier driver",
                           findings)
        check_includes(rel, raw.split("\n"), lines, findings)
        check_status_discard(rel, lines, status_names, findings)
        check_issue_override(rel, stripped, findings)
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    findings = run(root)
    for rel, lineno, rule, message in sorted(findings):
        print("%s:%d: [%s] %s" % (rel, lineno, rule, message))
    if findings:
        print("hdc_lint: %d violation(s)" % len(findings), file=sys.stderr)
        return 1
    print("hdc_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
