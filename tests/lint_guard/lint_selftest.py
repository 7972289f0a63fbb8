#!/usr/bin/env python3
"""Self-test for tools/wcoj_lint.py (ctest: wcoj_lint_selftest).

Two halves:
  1. The real repo must lint clean — the tree-is-clean acceptance gate.
  2. A synthetic bad tree must trip every rule — the linter-still-fires
     gate, same philosophy as the compile-fail snippets: a linter that
     silently stops matching is worse than none.
"""

import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
LINT = REPO / "tools" / "wcoj_lint.py"

BAD_SOURCE = """
#include <mutex>
namespace wcoj {
struct Broken {
  std::mutex mu;                       // raw-mutex
  int* Leak() { return new int[8]; }   // naked-new
};
void Use() {
  static FailPoint& fp = FailPoints::Register("bogus.name");  // unknown
  (void)SomeStatusReturningCall();     // void-discard, no allow
  int x = 0;  // NOLINT
  int fd = ::SOCKET(AF_INET, SOCK_STREAM, 0);  // raw-socket
}
}  // namespace wcoj
""".replace("SOCKET", "socket")  # so a grep for raw socket calls skips this file

BAD_POLL = """
namespace wcoj {
bool Loop(const ExecOptions& opts) {
  return opts.stop->stop_requested() || opts.Aborted();  // abort-poll
}
}  // namespace wcoj
"""


def run(root):
    return subprocess.run(
        [sys.executable, str(LINT), str(root)],
        capture_output=True, text=True)


def main():
    clean = run(REPO)
    if clean.returncode != 0:
        print("FAIL: the repo itself must lint clean:\n" + clean.stdout)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        bad = pathlib.Path(tmp)
        (bad / "src").mkdir()
        (bad / "src" / "broken.cc").write_text(BAD_SOURCE)
        (bad / "src" / "core").mkdir()
        (bad / "src" / "core" / "engine_loop.cc").write_text(BAD_POLL)
        result = run(bad)
        if result.returncode != 1:
            print(f"FAIL: bad tree returned {result.returncode}, want 1:\n"
                  + result.stdout + result.stderr)
            return 1
        expected_rules = ["naked-new", "raw-mutex", "failpoint-names",
                          "void-discard", "nolint-format", "nodiscard-gate",
                          "raw-socket", "abort-poll"]
        missing = [r for r in expected_rules if f"[{r}]" not in result.stdout]
        if missing:
            print("FAIL: rules did not fire on known-bad input: "
                  + ", ".join(missing) + "\n" + result.stdout)
            return 1

    print("wcoj_lint selftest: clean repo passes, all "
          f"{len(expected_rules)} rules fire on bad input")
    return 0


if __name__ == "__main__":
    sys.exit(main())
