#!/usr/bin/env python3
"""Repo-specific lints that generic tools cannot express.

Rules (each maps to a documented repo convention; see DESIGN.md §7 and §12):

  entry-point-checks   every .cc under src/core, src/sim, src/load, and
                       src/chaos
                       validates inputs with TSF_CHECK/TSF_DCHECK (Core
                       Guidelines P.7 — the rule stated in util/check.h).
                       Files whose entry points are data-only constructors
                       may be allowlisted below with a justification.
  no-stdout            library code (src/) never writes to stdout directly:
                       no std::cout, printf, puts, or fprintf(stdout, ...).
                       Diagnostics go through TSF_LOG (stderr); data goes to
                       caller-named files. tools/, bench/, examples/ are the
                       process entry points and may print.
  telemetry-macros     outside src/telemetry/, telemetry symbols are touched
                       only via the TSF_* macros or inside an explicit
                       `#if defined(TSF_TELEMETRY)` region, so
                       -DTSF_TELEMETRY=OFF truly compiles every
                       instrumentation site out. The always-compiled data
                       API (FairnessSample & writers, HistogramSnapshot
                       offline accumulation) is exempt.
  lock-discipline      src/ never names raw std locking primitives
                       (std::mutex, lock_guard, unique_lock, scoped_lock,
                       condition_variable, shared_mutex, atomic_flag, ...)
                       outside the two annotated wrapper headers
                       (util/mutex.h, telemetry/spinlock.h). The wrappers
                       carry clang thread-safety annotations; a raw primitive
                       is a lock the analysis cannot see. std::call_once /
                       std::once_flag stay allowed — one-time init is not a
                       critical section. This keeps lock discipline
                       statically enforced even on gcc-only hosts where
                       -Wthread-safety itself cannot run.
  include-cycles       the `#include "..."` graph over src/ headers is
                       acyclic.
  pragma-once          every header in src/, bench/, tools/ uses
                       `#pragma once`.

Usage:
  tools/lint_repo.py [--root DIR] [--format=text|github]
  tools/lint_repo.py --self-test      prove each rule still fires on a
                                      known-bad synthetic input; exit 1 if
                                      any rule has gone blind
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_common  # noqa: E402
from lint_common import Finding, strip_comments  # noqa: E402

# ---------------------------------------------------------------- config --

# entry-point-checks: files exempt from the TSF_CHECK requirement, with the
# reason on record. Keep this list short — it is the lint's burn-down ledger.
ENTRY_POINT_CHECK_ALLOWLIST = {
    # Data-only constructors of the paper's worked examples; every problem
    # they build is validated by Cluster/Compile at the consuming entry point.
    "src/core/paper_examples.cc",
}

# telemetry-macros: always-compiled telemetry *data* API (not
# instrumentation). The fairness timeline rides inside SimResult, so the
# simulator references these types unconditionally by design.
TELEMETRY_DATA_API = (
    "FairnessSample",
    "WriteFairnessJsonl",
    # Offline accumulation over recorded event streams (src/load driver,
    # tools/): plain data math, no registry, compiled unconditionally.
    # (HistogramSnapshot also escapes TELEMETRY_GUARDED_RE by construction —
    # the Histogram\b alternative stops at the word boundary — this entry
    # records that the escape is intentional.)
    "HistogramSnapshot",
)

# telemetry-macros: instrumentation symbols that must stay behind the TSF_*
# macros or an explicit #if defined(TSF_TELEMETRY) region.
TELEMETRY_GUARDED_RE = re.compile(
    r"telemetry::(Registry|Tracer|Counter|Gauge|Histogram\b|ScopedSpan|"
    r"Enabled|TraceActive|SetEnabled)"
)

STDOUT_RES = (
    re.compile(r"std::cout"),
    # Bare or std:: printf/puts — but not snprintf/fprintf/vsnprintf (the
    # preceding word character excludes them) and not our own identifiers.
    re.compile(r"(?<![A-Za-z0-9_.])printf\s*\("),
    re.compile(r"(?<![A-Za-z0-9_.])puts\s*\("),
    re.compile(r"fprintf\s*\(\s*stdout"),
    re.compile(r"fputs\s*\([^;]*,\s*stdout\s*\)"),
    re.compile(r"fwrite\s*\([^;]*,\s*stdout\s*\)"),
)

# lock-discipline: the only files allowed to name raw std locking primitives.
# Both wrap them behind clang thread-safety annotations (DESIGN.md §12).
LOCK_WRAPPER_FILES = {
    "src/util/mutex.h",
    "src/telemetry/spinlock.h",
}

# std::once_flag / std::call_once are deliberately absent: one-time init is
# not a critical section and carries no annotation story.
RAW_LOCK_RE = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?"
    r"mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::atomic_flag\b"
)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

CHECK_RE = re.compile(r"\bTSF_D?CHECK")

TELEMETRY_IF_RE = re.compile(
    r"#\s*if\s+defined\s*\(\s*TSF_TELEMETRY\s*\)|#\s*ifdef\s+TSF_TELEMETRY"
)


# ----------------------------------------------------------------- rules --
# Each rule takes {relpath: text} and returns [lint_common.Finding].


def rule_entry_point_checks(files):
    findings = []
    for path, text in sorted(files.items()):
        if not path.endswith(".cc"):
            continue
        if not (path.startswith("src/core/") or path.startswith("src/sim/")
                or path.startswith("src/load/")
                or path.startswith("src/chaos/")):
            continue
        if path in ENTRY_POINT_CHECK_ALLOWLIST:
            continue
        if not CHECK_RE.search(strip_comments(text)):
            findings.append(Finding(
                "entry-point-checks", path, None,
                "no TSF_CHECK/TSF_DCHECK — public entry points must validate "
                "inputs (P.7); add checks or allowlist the file with a "
                "justification in lint_repo.py"))
    return findings


def rule_no_stdout(files):
    findings = []
    for path, text in sorted(files.items()):
        if not path.startswith("src/"):
            continue
        clean = strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), 1):
            for pattern in STDOUT_RES:
                if pattern.search(line):
                    findings.append(Finding(
                        "no-stdout", path, lineno,
                        f"direct stdout write ({pattern.pattern!r}) — "
                        "library code logs via TSF_LOG or writes "
                        "caller-named files"))
    return findings


def rule_telemetry_macros(files):
    findings = []
    for path, text in sorted(files.items()):
        if not path.startswith("src/") or path.startswith("src/telemetry/"):
            continue
        clean = strip_comments(text)
        guarded = lint_common.preprocessor_regions(clean, TELEMETRY_IF_RE)
        for lineno, line in enumerate(clean.splitlines(), 1):
            if line.strip().startswith("#"):
                continue
            match = TELEMETRY_GUARDED_RE.search(line)
            if match and not guarded[lineno - 1]:
                if any(api in line for api in TELEMETRY_DATA_API):
                    continue
                findings.append(Finding(
                    "telemetry-macros", path, lineno,
                    f"unguarded `{match.group(0)}` — use a TSF_* macro or "
                    "wrap in #if defined(TSF_TELEMETRY) so "
                    "-DTSF_TELEMETRY=OFF compiles it out"))
    return findings


def rule_lock_discipline(files):
    findings = []
    for path, text in sorted(files.items()):
        if not path.startswith("src/") or path in LOCK_WRAPPER_FILES:
            continue
        clean = strip_comments(text)
        for lineno, line in enumerate(clean.splitlines(), 1):
            match = RAW_LOCK_RE.search(line)
            if match:
                findings.append(Finding(
                    "lock-discipline", path, lineno,
                    f"raw `{match.group(0)}` outside the annotated wrappers "
                    "— use tsf::Mutex/MutexLock/CondVar (util/mutex.h) or "
                    "SpinLock/SpinGuard (telemetry/spinlock.h) so clang "
                    "thread-safety analysis can see the lock"))
    return findings


def rule_include_cycles(files):
    headers = {p: t for p, t in files.items()
               if p.startswith("src/") and p.endswith(".h")}
    graph = {}
    for path, text in headers.items():
        deps = []
        for inc in INCLUDE_RE.findall(strip_comments(text)):
            target = "src/" + inc
            if target in headers:
                deps.append(target)
        graph[path] = deps

    findings = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}

    def dfs(node, stack):
        color[node] = GRAY
        stack.append(node)
        for dep in graph[node]:
            if color[dep] == GRAY:
                cycle = stack[stack.index(dep):] + [dep]
                findings.append(Finding(
                    "include-cycles", node, None, " -> ".join(cycle)))
            elif color[dep] == WHITE:
                dfs(dep, stack)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node, [])
    return findings


def rule_pragma_once(files):
    findings = []
    for path, text in sorted(files.items()):
        if not path.endswith(".h"):
            continue
        if "#pragma once" not in text:
            findings.append(Finding(
                "pragma-once", path, None, "header lacks `#pragma once`"))
    return findings


RULES = (
    rule_entry_point_checks,
    rule_no_stdout,
    rule_telemetry_macros,
    rule_lock_discipline,
    rule_include_cycles,
    rule_pragma_once,
)


# ------------------------------------------------------------- self-test --

SELF_TEST_CASES = [
    # (rule, synthetic tree that MUST produce >= 1 finding)
    (rule_entry_point_checks,
     {"src/core/thing.cc": "void Api(int x) { use(x); }\n"}),
    (rule_entry_point_checks,  # a comment mentioning TSF_CHECK is not a check
     {"src/sim/thing.cc": "// TSF_CHECK lives elsewhere\nvoid Api() {}\n"}),
    (rule_no_stdout,
     {"src/core/thing.cc": 'void P() { std::cout << "x"; }\n'}),
    (rule_no_stdout,
     {"src/core/thing.cc": 'void P() { printf("x"); }\n'}),
    (rule_no_stdout,
     {"src/core/thing.cc": 'void P() { std::printf("x"); }\n'}),
    (rule_no_stdout,
     {"src/core/thing.cc": 'void P() { fprintf(stdout, "x"); }\n'}),
    (rule_telemetry_macros,
     {"src/core/thing.cc":
      "void F() { telemetry::Registry::Get(); }\n"}),
    (rule_telemetry_macros,  # guard must actually be TSF_TELEMETRY
     {"src/core/thing.cc":
      "#ifdef OTHER_FLAG\nvoid F() { telemetry::Tracer::Get(); }\n#endif\n"}),
    (rule_telemetry_macros,  # the warm LP engine is hot-path: src/lp/ must
     {"src/lp/revised.cc":   # never touch instrumentation outside the macros
      "void Solve() { telemetry::Registry::Get(); }\n"}),
    (rule_telemetry_macros,
     {"src/lp/standard_form.cc":
      "#ifdef NDEBUG\nvoid F() { telemetry::ScopedSpan s; }\n#endif\n"}),
    (rule_lock_discipline,
     {"src/core/thing.cc": "std::mutex mu_;\n"}),
    (rule_lock_discipline,
     {"src/sim/thing.cc":
      "void F() { const std::lock_guard<std::mutex> l(mu_); }\n"}),
    (rule_lock_discipline,
     {"src/telemetry/trace.cc": "std::atomic_flag busy_;\n"}),
    (rule_lock_discipline,  # condition_variable needs the annotated CondVar
     {"src/util/thread_pool.h": "std::condition_variable cv_;\n"}),
    (rule_lock_discipline,
     {"src/mesos/thing.cc": "std::shared_mutex registry_mu_;\n"}),
    (rule_include_cycles,
     {"src/a/a.h": '#pragma once\n#include "b/b.h"\n',
      "src/b/b.h": '#pragma once\n#include "a/a.h"\n'}),
    (rule_pragma_once,
     {"src/core/thing.h": "struct T {};\n"}),
    (rule_entry_point_checks,  # the interning pool is a core entry point:
     {"src/core/eligibility.cc":  # an unchecked Intern must be flagged
      "EligibilityHandle EligibilityPool::Intern(const Constraint& c) {\n"
      "  return Compile(c);\n}\n"}),
    (rule_telemetry_macros,  # collapsed-scheduler hot path: raw telemetry
     {"src/core/online/scheduler.cc":  # objects (not the TSF_* macros) leak
      "void OnlineScheduler::ServeMachineCollapsed() {\n"  # overhead into
      "  telemetry::Registry::Get();\n}\n"}),  # every serve
    (rule_entry_point_checks,  # the load driver is an entry point too: an
     {"src/load/driver.cc":    # unchecked stream config must be flagged
      "LoadReport RunDesLoad(const DriverConfig& c) { return Run(c); }\n"}),
    (rule_telemetry_macros,  # per-policy histogram lookups in src/load must
     {"src/load/driver.cc":  # stay inside a TSF_TELEMETRY region
      "void Observe() { telemetry::Registry::Get().GetHistogram(\"x\"); }\n"}),
    (rule_entry_point_checks,  # the guided-search loop is a chaos entry
     {"src/chaos/search.cc":   # point: unchecked SearchOptions must flag
      "SearchResult RunGuidedSearch(const SearchOptions& o) {\n"
      "  return Loop(o);\n}\n"}),
    (rule_entry_point_checks,  # mutation ops promise ValidateFaultPlan-by-
     {"src/chaos/mutate.cc":   # construction; an unchecked Finish must flag
      "FaultPlan Finish(std::vector<FaultAtom> atoms) {\n"
      "  return AssembleAtoms(std::move(atoms));\n}\n"}),
    (rule_telemetry_macros,  # coverage-guided search must not pay telemetry
     {"src/chaos/search.cc":  # costs when instrumentation is compiled out
      "void Score() { telemetry::Counter c; }\n"}),
]

# Synthetic trees that must stay CLEAN — guards against over-matching.
SELF_TEST_CLEAN = [
    (rule_no_stdout,
     {"src/core/thing.cc":
      'void P(char* b) { snprintf(b, 4, "x"); fprintf(stderr, "x"); }\n'}),
    (rule_no_stdout,  # printing from tools/ and bench/ is the whole point
     {"tools/main.cc": 'int main() { printf("ok\\n"); }\n'}),
    (rule_telemetry_macros,
     {"src/core/thing.cc":
      "#if defined(TSF_TELEMETRY)\n"
      "void F() { telemetry::Registry::Get(); }\n#endif\n"}),
    (rule_telemetry_macros,  # data API is always-compiled by design
     {"src/sim/thing.cc":
      "std::vector<telemetry::FairnessSample> samples;\n"}),
    (rule_telemetry_macros,  # the TSF_* macros are how src/lp instruments:
     {"src/lp/revised.cc":   # they compile out under -DTSF_TELEMETRY=OFF
      'void Solve() { TSF_COUNTER_ADD("lp.iterations", 1); }\n'
      'void Trace() { TSF_TRACE_SCOPE("lp", "Solve"); }\n'}),
    (rule_lock_discipline,  # the wrapper headers are the sanctioned homes
     {"src/util/mutex.h":
      "#pragma once\n#include <mutex>\nstd::mutex mu_;\n"
      "std::condition_variable cv_;\n",
      "src/telemetry/spinlock.h":
      "#pragma once\n#include <atomic>\nstd::atomic_flag flag_;\n"}),
    (rule_lock_discipline,  # one-time init is not a critical section
     {"src/sim/runner.cc":
      "#include <mutex>\nstd::once_flag warm_once;\n"
      "void F() { std::call_once(warm_once, [] {}); }\n"}),
    (rule_lock_discipline,  # plain atomics are fine; only atomic_flag (a
     {"src/telemetry/metrics.h":  # spinlock building block) is reserved
      "std::atomic<std::uint64_t> count{0};\n"}),
    (rule_lock_discipline,  # tools/ and bench/ are out of scope
     {"tools/main.cc": "#include <mutex>\nstd::mutex mu;\n"}),
    (rule_entry_point_checks,
     {"src/core/thing.cc": "void Api(int x) { TSF_CHECK(x > 0); }\n"}),
    (rule_entry_point_checks,  # the real pool validates at the boundary
     {"src/core/eligibility.cc":
      "EligibilityHandle EligibilityPool::Intern(const Constraint& c) {\n"
      "  TSF_CHECK_GT(cluster_->num_machines(), 0u);\n"
      "  return Compile(c);\n}\n"}),
    (rule_telemetry_macros,  # macro-only instrumentation in the collapsed
     {"src/core/online/scheduler.cc":  # serve/greedy hot paths is fine
      "void OnlineScheduler::ServeMachineCollapsed() {\n"
      '  TSF_COUNTER_ADD("scheduler.greedy.class_skips", 1);\n'
      '  TSF_HISTOGRAM_RECORD("scheduler.serve_machine.wait_list", 1);\n}\n'}),
    (rule_include_cycles,
     {"src/a/a.h": '#pragma once\n#include "b/b.h"\n',
      "src/b/b.h": '#pragma once\n'}),
    (rule_telemetry_macros,  # HistogramSnapshot is offline data math — the
     {"src/load/driver.cc":  # load driver accumulates into it unguarded
      "telemetry::HistogramSnapshot ttp;\n"
      "void Tally(double ms) { ttp.Record(ms); }\n"}),
    (rule_telemetry_macros,  # macro + guarded-region instrumentation in
     {"src/load/driver.cc":  # src/load compiles out under TELEMETRY=OFF
      '#if defined(TSF_TELEMETRY)\n'
      "void Observe() { telemetry::Registry::Get().GetHistogram(\"x\"); }\n"
      "#endif\n"
      'void Tick() { TSF_HISTOGRAM_RECORD("load.ttp_ms", 1.0); }\n'}),
    (rule_entry_point_checks,  # the real driver validates its spec up front
     {"src/load/stream.cc":
      "GeneratedStream GenerateArrivals(const StreamSpec& spec) {\n"
      "  TSF_CHECK(spec.rate > 0.0);\n  return Build(spec);\n}\n"}),
    (rule_entry_point_checks,  # the real search validates options and every
     {"src/chaos/search.cc":   # mutant plan at the boundary
      "SearchResult RunGuidedSearch(const SearchOptions& o) {\n"
      "  TSF_CHECK_GT(o.max_execs, 0u) << \"empty budget\";\n"
      "  return Loop(o);\n}\n"}),
    (rule_entry_point_checks,  # mutate.cc asserts its by-construction
     {"src/chaos/mutate.cc":   # contract before returning any mutant
      "FaultPlan Finish(std::vector<FaultAtom> atoms) {\n"
      "  FaultPlan plan = AssembleAtoms(std::move(atoms));\n"
      "  TSF_CHECK(ValidateFaultPlan(plan).empty());\n  return plan;\n}\n"}),
    (rule_telemetry_macros,  # ChaosCoverage is chaos-local feedback state
     {"src/chaos/search.cc":  # (its own TSF_CHAOS_COVERAGE_OFF switch), not
      "ChaosCoverage coverage;\n"  # a telemetry:: instrumentation symbol
      "void Merge(const ChaosCoverage& o) { coverage.Merge(o); }\n"}),
]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    lint_common.add_common_arguments(parser)
    args = parser.parse_args()
    if args.self_test:
        return lint_common.run_self_test(
            "lint_repo", SELF_TEST_CASES, SELF_TEST_CLEAN)
    root = args.root or lint_common.default_root(__file__)
    files = lint_common.load_tree(root, ("src", "bench", "tools"))
    findings = lint_common.run_rules(RULES, files)
    lint_common.emit_findings(findings, args.fmt)
    print(f"lint_repo: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
