#!/usr/bin/env python3
# Copyright (c) hdc authors. Apache-2.0 license.
"""Negative tests for every tools/hdc_lint.py rule.

Builds synthetic source trees in a temp directory — one seeded violation
per rule, plus a clean tree and known false-positive shapes — runs the real
linter against them with --root, and asserts the expected findings (and
only those) are reported. Mirrors the bench-gate selftest pattern
(tools/check_bench_regression_selftest.py): the gate that protects CI is
itself gated by a tier-1 test, so a lint regression that silently stops
flagging violations fails the suite instead of going unnoticed.

Exit status: 0 all scenarios behave, 1 otherwise.
"""

import os
import subprocess
import sys
import tempfile

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hdc_lint.py")


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def run_lint(root):
    proc = subprocess.run(
        [sys.executable, LINT, "--root", root],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


FAILURES = []


def expect(condition, scenario, detail):
    if condition:
        print("PASS: %s" % scenario)
    else:
        print("FAIL: %s — %s" % (scenario, detail))
        FAILURES.append(scenario)


def scenario(name, files, want_rules, forbid_rules=()):
    """Lints a synthetic tree; asserts every rule in want_rules fires (and
    the exit code matches), and no rule in forbid_rules fires."""
    with tempfile.TemporaryDirectory() as root:
        for rel, text in files.items():
            write(root, rel, text)
        code, out = run_lint(root)
    want_code = 1 if want_rules else 0
    expect(code == want_code, name,
           "exit=%d want %d; output:\n%s" % (code, want_code, out))
    for rule in want_rules:
        expect("[%s]" % rule in out, "%s flags %s" % (name, rule),
               "missing [%s] in output:\n%s" % (rule, out))
    for rule in forbid_rules:
        expect("[%s]" % rule not in out,
               "%s does not flag %s" % (name, rule),
               "unexpected [%s] in output:\n%s" % (rule, out))


def main():
    # --- clock-discipline ---------------------------------------------------
    scenario(
        "clock: steady_clock::now outside util/clock",
        {"src/core/bad.cc":
         "void F() { auto t = std::chrono::steady_clock::now(); }\n"},
        ["clock-discipline"])
    scenario(
        "clock: sleep_for outside util/clock",
        {"src/server/bad.cc":
         "void F() { std::this_thread::sleep_for(d); }\n"},
        ["clock-discipline"])
    scenario(
        "clock: util/clock.cc is allowlisted",
        {"src/util/clock.cc":
         "auto Now() { return std::chrono::steady_clock::now(); }\n"},
        [])
    scenario(
        "clock: commented-out clock read is ignored",
        {"src/core/ok.cc":
         "// auto t = std::chrono::steady_clock::now();\n"},
        [])

    # --- thread-discipline --------------------------------------------------
    scenario(
        "thread: std::thread outside the allowlist",
        {"src/data/bad.cc": "std::thread t([] {});\n"},
        ["thread-discipline"])
    scenario(
        "thread: sharding.cc scatters on its pool, not raw threads",
        {"src/server/sharding.cc":
         "void Scatter() { std::thread t([] {}); t.join(); }\n"},
        ["thread-discipline"])
    scenario(
        "thread: worker_pool.cc is allowlisted",
        {"src/util/worker_pool.cc": "std::thread t([] {});\n"},
        [])

    # --- mutex-discipline ---------------------------------------------------
    scenario(
        "mutex: raw std::mutex outside thread_annotations.h",
        {"src/server/bad.h": "struct S { std::mutex mu; };\n"},
        ["mutex-discipline"])
    scenario(
        "mutex: std::lock_guard is flagged",
        {"src/net/bad.cc": "void F() { std::lock_guard<std::mutex> l(m); }\n"},
        ["mutex-discipline"])
    scenario(
        "mutex: thread_annotations.h is allowlisted",
        {"src/util/thread_annotations.h": "class M { std::mutex mu_; };\n"},
        [])
    scenario(
        "mutex: string literal mentioning std::mutex is ignored",
        {"src/core/ok.cc": 'const char* kMsg = "std::mutex";\n'},
        [])

    # --- include-layers -----------------------------------------------------
    scenario(
        "layers: util including net is an upward edge",
        {"src/util/bad.h": '#include "net/socket.h"\n'},
        ["include-layers"])
    scenario(
        "layers: server including core is an upward edge",
        {"src/server/bad.cc": '#include "core/crawler.h"\n'},
        ["include-layers"])
    scenario(
        "layers: downward and same-layer includes are fine",
        {"src/net/ok.cc":
         '#include "net/socket.h"\n#include "util/status.h"\n'},
        [])

    # --- status-discard -----------------------------------------------------
    scenario(
        "status: bare call discarding a Status is flagged",
        {"src/net/api.h": "Status Connect(int fd);\n",
         "src/net/bad.cc": "void F() {\n  Connect(3);\n}\n"},
        ["status-discard"])
    scenario(
        "status: method call through a receiver is flagged",
        {"src/net/api.h": "struct C { Status Connect(int fd); };\n",
         "src/net/bad.cc": "void F(C* c) {\n  c->Connect(3);\n}\n"},
        ["status-discard"])
    scenario(
        "status: consumed and voided calls are fine",
        {"src/net/api.h": "Status Connect(int fd);\n",
         "src/net/ok.cc":
         "void F() {\n"
         "  Status s = Connect(1);\n"
         "  if (!Connect(2).ok()) return;\n"
         "  (void)Connect(3);\n"
         "  return Connect(4);\n"
         "}\n"},
        [], forbid_rules=["status-discard"])
    scenario(
        "status: continuation line is not a discard",
        {"src/net/api.h": "Status Connect(int fd);\n",
         "src/net/ok.cc":
         "void F(C* c) {\n  Status s =\n      c->Connect(3);\n}\n"},
        [], forbid_rules=["status-discard"])
    scenario(
        "status: name also declared void is ambiguous, skipped",
        {"src/net/api.h":
         "struct A { Status Close(); };\nstruct B { void Close(); };\n",
         "src/net/ok.cc": "void F(B* b) {\n  b->Close();\n}\n"},
        [], forbid_rules=["status-discard"])

    # --- issue-path ---------------------------------------------------------
    scenario(
        "issue-path: an Issue override over two lines is flagged",
        {"src/server/bad.h":
         "class S : public HiddenDbServer {\n"
         "  Status Issue(const Query& query,\n"
         "               Response* response) override;\n"
         "};\n"},
        ["issue-path"])
    scenario(
        "issue-path: IssueBatch overrides, Issue calls and comments are fine",
        {"src/server/ok.h":
         "class S : public ServerDecorator {\n"
         "  // Status Issue(const Query& q, Response* r) override;\n"
         "  Status IssueBatch(const std::vector<Query>& queries,\n"
         "                    std::vector<Response>* responses) override;\n"
         "  Status One(const Query& q, Response* r) {\n"
         "    return base_->Issue(q, r);\n"
         "  }\n"
         "};\n"},
        [], forbid_rules=["issue-path"])

    # --- round-boundary -----------------------------------------------------
    scenario(
        "round-boundary: a second round loop calling RoundSize",
        {"src/core/slice_engine.cc":
         "void Pass(CrawlContext* ctx) {\n"
         "  const size_t batch = ctx->RoundSize(kUnbounded);\n"
         "}\n"},
        ["round-boundary"])
    scenario(
        "round-boundary: the driver, the context and comments are fine",
        {"src/core/frontier.cc":
         "void Run() { batch = ctx->RoundSize(rules->RoundWidth()); }\n",
         "src/core/crawl_context.cc":
         "size_t CrawlContext::RoundSize(size_t width) { return width; }\n",
         "src/core/crawl_context.h": "  size_t RoundSize(size_t width);\n",
         "src/core/ok.h": "// The driver calls RoundSize(width) per round.\n"},
        [])

    # --- crawl-issue --------------------------------------------------------
    scenario(
        "crawl-issue: a crawl loop calling the server directly",
        {"src/core/delta_crawl.cc":
         "Status Pass(HiddenDbServer* server) {\n"
         "  HDC_RETURN_IF_ERROR(server->Issue(q, &response));\n"
         "}\n"},
        ["crawl-issue"])
    scenario(
        "crawl-issue: the driver, a probe and other layers are fine",
        {"src/core/frontier.cc":
         "void Run() { outcomes = ctx->IssueBatch(queries, &responses); }\n",
         "src/core/domain_discovery.cc":
         "Status Probe() { return server->Issue(query, &response); }\n",
         "src/server/decorators.h":
         "Status F() { return base_->IssueBatch(queries, responses); }\n"},
        [])

    # --- multi-rule tree ----------------------------------------------------
    scenario(
        "all five rules fire together",
        {"src/util/bad.h": '#include "analytics/report.h"\n',
         "src/data/bad.cc":
         "std::thread t([] {});\n"
         "std::mutex mu;\n"
         "auto T() { return std::chrono::system_clock::now(); }\n",
         "src/query/api.h": "Status Run();\n",
         "src/query/bad.cc": "void F() {\n  Run();\n}\n"},
        ["clock-discipline", "thread-discipline", "mutex-discipline",
         "include-layers", "status-discard"])

    print()
    if FAILURES:
        print("hdc_lint_selftest: %d scenario(s) FAILED" % len(FAILURES))
        return 1
    print("hdc_lint_selftest: all scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
