#!/usr/bin/env python3
"""Repo-specific invariant linter (rules clang-tidy cannot express).

Rules:
  naked-new        No naked `new` / `malloc` / `calloc` / `realloc` /
                   `free` in src/ outside the arena layer
                   (src/core/cds_arena.*). Everything else allocates
                   through containers, make_unique/make_shared, or the
                   arenas, so the memory-budget governor sees it.
  raw-mutex        No raw std::mutex / std::condition_variable /
                   std::lock_guard / std::unique_lock / std::scoped_lock
                   in src/ outside util/thread_annotations.h. All
                   locking goes through the capability-annotated
                   wcoj::Mutex wrappers so GUARDED_BY coverage cannot
                   rot — this is what keeps the Clang thread-safety
                   gate meaningful even for code written on a GCC host.
  failpoint-names  Every FailPoints::Register("name") literal in src/
                   must appear in docs/FAILPOINTS.md (the registry).
  nodiscard-gate   util/status.h must keep [[nodiscard]] on Status and
                   StatusOr, and util/mem_budget.h on TryCharge — the
                   attributes ARE the every-Status-consumed guarantee
                   (the compiler enforces consumption; this rule stops
                   the attributes themselves from being dropped).
  void-discard     `(void)` casts that explicitly drop a Status or
                   charge result need a `wcoj-lint: allow(void-discard)`
                   suppression naming a reason; silent swallows of the
                   error channel are exactly what [[nodiscard]] exists
                   to surface.
  raw-socket       No ::socket( / ::connect( / ::send( / ::recv( outside
                   src/server/server.cc and src/server/client.cc. Every
                   test, bench and CLI talks to the server through
                   ServerClient (server/client.h), so the protocol client
                   and its send loop exist once.
  abort-poll       No stop_requested() / .Aborted() in src/core/ or
                   src/baseline/ outside src/core/engine.h, where
                   ExecOptions and its AbortPoll live. Engines and the
                   CDS wind down through AbortPoll::Check, so the
                   rate-limit and the latched status exist once.
  nolint-format    Every clang-tidy NOLINT must name its check
                   (NOLINT(check-name)) and carry a `-- reason`
                   trailer; bare NOLINTs are unauditable. A tree-wide
                   budget caps total suppressions.

Suppressing: append `// wcoj-lint: allow(<rule>) -- <reason>` to the
offending line. Suppressions count toward the same budget as NOLINTs.

Exit code 0 = clean, 1 = findings, 2 = usage/setup error.
"""

import pathlib
import re
import sys

NOLINT_BUDGET = 10  # tree-wide cap: clang-tidy NOLINTs + wcoj allows

ARENA_FILES = {"src/core/cds_arena.h", "src/core/cds_arena.cc"}
ANNOTATION_HEADER = "src/util/thread_annotations.h"
SOCKET_FILES = {"src/server/server.cc", "src/server/client.cc"}
POLL_DIRS = ("src/core/", "src/baseline/")
POLL_FILE = "src/core/engine.h"

ALLOC_RE = re.compile(
    r"(?<![\w.])new\s+[A-Za-z_(]|(?<![\w.:])(?:malloc|calloc|realloc|free)\s*\("
)
RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b"
)
RAW_SOCKET_RE = re.compile(r"::(?:socket|connect|send|recv)\(")
ABORT_POLL_RE = re.compile(r"\bstop_requested\(\)|\.Aborted\(\)")
REGISTER_RE = re.compile(r'FailPoints::Register\("([^"]+)"\)')
VOID_DISCARD_RE = re.compile(
    r"\(void\)\s*\w*(?:status|Status|TryCharge|TryRebase)"
)
NOLINT_RE = re.compile(r"//\s*NOLINT(NEXTLINE)?(\(([^)]*)\))?(.*)")
ALLOW_RE = re.compile(r"//\s*wcoj-lint:\s*allow\((.*?)\)(\s*--\s*\S.*)?")


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    return m is not None and rule in m.group(1)


def lint(root):
    root = pathlib.Path(root)
    findings = []
    suppressions = 0

    registry_doc = root / "docs" / "FAILPOINTS.md"
    documented = set()
    if registry_doc.exists():
        for m in re.finditer(r"\|\s*`([^`]+)`\s*\|", registry_doc.read_text()):
            documented.add(m.group(1))
    else:
        findings.append(("docs/FAILPOINTS.md", 0, "failpoint-names",
                         "registry document is missing"))

    status_h_path = root / "src/util/status.h"
    if status_h_path.exists():
        status_h = status_h_path.read_text()
        if "class [[nodiscard]] Status" not in status_h:
            findings.append(("src/util/status.h", 0, "nodiscard-gate",
                             "Status lost its [[nodiscard]]"))
        if "class [[nodiscard]] StatusOr" not in status_h:
            findings.append(("src/util/status.h", 0, "nodiscard-gate",
                             "StatusOr lost its [[nodiscard]]"))
    else:
        findings.append(("src/util/status.h", 0, "nodiscard-gate",
                         "file is missing"))
    budget_h_path = root / "src/util/mem_budget.h"
    if budget_h_path.exists():
        if budget_h_path.read_text().count("[[nodiscard]] bool Try") < 3:
            findings.append(("src/util/mem_budget.h", 0, "nodiscard-gate",
                             "TryCharge/TryRebase lost a [[nodiscard]]"))
    else:
        findings.append(("src/util/mem_budget.h", 0, "nodiscard-gate",
                         "file is missing"))

    scan_dirs = ["src", "tests", "bench", "examples"]
    for d in scan_dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            in_src = rel.startswith("src/")
            text = path.read_text()
            in_block_comment = False
            for lineno, line in enumerate(text.splitlines(), 1):
                # Strip comments and string literals so prose mentioning
                # `new` or `std::mutex` never counts as a use.
                code = line
                if in_block_comment:
                    end = code.find("*/")
                    if end < 0:
                        code = ""
                    else:
                        code = code[end + 2:]
                        in_block_comment = False
                code = re.sub(r'"(?:[^"\\]|\\.)*"', '""', code)
                code = code.split("//")[0]
                start = code.find("/*")
                while start >= 0:
                    end = code.find("*/", start + 2)
                    if end < 0:
                        code = code[:start]
                        in_block_comment = True
                        break
                    code = code[:start] + code[end + 2:]
                    start = code.find("/*")

                if in_src and rel not in ARENA_FILES:
                    if ALLOC_RE.search(code) and not allowed(line, "naked-new"):
                        findings.append((rel, lineno, "naked-new",
                                         "naked allocation outside the arena "
                                         "layer: " + line.strip()))
                if in_src and rel != ANNOTATION_HEADER:
                    if RAW_MUTEX_RE.search(code) and \
                            not allowed(line, "raw-mutex"):
                        findings.append((rel, lineno, "raw-mutex",
                                         "raw std lock primitive (use "
                                         "wcoj::Mutex/MutexLock/CondVar): "
                                         + line.strip()))
                if rel not in SOCKET_FILES and RAW_SOCKET_RE.search(code) \
                        and not allowed(line, "raw-socket"):
                    findings.append((rel, lineno, "raw-socket",
                                     "raw socket call outside the server "
                                     "and its client (use ServerClient): "
                                     + line.strip()))
                if rel.startswith(POLL_DIRS) and rel != POLL_FILE and \
                        ABORT_POLL_RE.search(code) and \
                        not allowed(line, "abort-poll"):
                    findings.append((rel, lineno, "abort-poll",
                                     "hand-rolled abort check outside "
                                     "AbortPoll (use AbortPoll::Check): "
                                     + line.strip()))
                if in_src:
                    for m in REGISTER_RE.finditer(line):
                        if m.group(1) not in documented:
                            findings.append(
                                (rel, lineno, "failpoint-names",
                                 f"failpoint '{m.group(1)}' is not in "
                                 "docs/FAILPOINTS.md"))
                if VOID_DISCARD_RE.search(code) and \
                        not allowed(line, "void-discard"):
                    findings.append((rel, lineno, "void-discard",
                                     "(void)-discarded status/charge needs "
                                     "a wcoj-lint allow with a reason: "
                                     + line.strip()))

                nolint = NOLINT_RE.search(line)
                if nolint:
                    suppressions += 1
                    check = nolint.group(3)
                    trailer = nolint.group(4) or ""
                    if not check:
                        findings.append((rel, lineno, "nolint-format",
                                         "NOLINT must name its check: "
                                         + line.strip()))
                    elif "--" not in trailer:
                        findings.append((rel, lineno, "nolint-format",
                                         "NOLINT needs a `-- reason` "
                                         "trailer: " + line.strip()))
                if ALLOW_RE.search(line):
                    suppressions += 1
                    if not ALLOW_RE.search(line).group(2):
                        findings.append((rel, lineno, "nolint-format",
                                         "wcoj-lint allow needs a "
                                         "`-- reason` trailer: "
                                         + line.strip()))

    if suppressions > NOLINT_BUDGET:
        findings.append((".", 0, "nolint-format",
                         f"suppression budget exceeded: {suppressions} > "
                         f"{NOLINT_BUDGET} (raise NOLINT_BUDGET only with "
                         "a justification in the same change)"))
    return findings


def main(argv):
    root = argv[1] if len(argv) > 1 else "."
    if not (pathlib.Path(root) / "src").is_dir():
        print(f"wcoj_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    findings = lint(root)
    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"wcoj_lint: {len(findings)} finding(s)")
        return 1
    print("wcoj_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
