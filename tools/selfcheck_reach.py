"""Which library self-checks does the tier-1 suite reach?

    python3 tools/selfcheck_reach.py [WORKDIR]

Run from the root of a source checkout.  It copies ``src/`` into WORKDIR
(``$RUNNER_TEMP``, else a fresh temporary directory), puts a line before
each ``raise AssertionError`` of the copy that appends ``file:line`` to a
marker file, and runs the tier-1 suite against the copy.  Each such raise is
a self-check of the library, and one that tier-1 never reaches proves nothing
until a fault lands.

It exits nonzero when the suite fails, when a raise that is not in
``KNOWN_UNREACHED`` goes unreached, when a listed raise is reached, or when a
listed raise is no longer in ``src/``.  Entries are keyed by file and message
(an f-string's fields read as ``{}``), not by line, so they survive edits.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: (file, message) of the raises tier-1 is known not to reach, each guarding a
#: fact of the construction that no test corrupts
KNOWN_UNREACHED = {
    ("rootdata.py", "{}: {} positive roots, not {}"),
    ("rootdata.py", "root lengths do not match the form"),
    ("rootdata.py", "D G A is not a multiple of the identity"),
    ("rootdata.py", "{} is not an integer"),
    ("reps.py", "dominant weight {} has multiplicity {}"),
    ("reps.py", "multiplicities sum to {}, Weyl dimension is {}"),
    ("reps.py", "degree mismatch: product {} vs Hilbert fit {}"),
    ("chevalley.py", "[H', Y-] != -2 Y-"),
    ("chevalley.py", "[Y+, Y-] != -4 H'"),
}


def _message(node: ast.expr) -> str:
    """The text of a raise's message, each f-string field as ``{}``."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_message(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return ast.unparse(node)


def self_checks(path: Path) -> list:
    """(line, message) of each ``raise AssertionError(...)`` in ``path``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
        if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "AssertionError":
            out.append((node.lineno, _message(exc.args[0]) if exc.args else ""))
    return sorted(out)


def mark(path: Path, checks: list, marker: Path) -> None:
    """Put a marker append on its own line before each raise in ``checks``."""
    lines = path.read_text().splitlines(keepends=True)
    for lineno, _ in reversed(checks):
        line = lines[lineno - 1]
        indent = line[: len(line) - len(line.lstrip())]
        if not line.lstrip().startswith("raise"):
            sys.exit(f"{path.name}:{lineno}: the raise does not start its line")
        note = f"{path.name}:{lineno}\n"
        lines.insert(lineno - 1, f"{indent}open({str(marker)!r}, 'a').write({note!r})\n")
    path.write_text("".join(lines))


def main() -> int:
    os.chdir(Path(__file__).resolve().parent.parent)
    given = sys.argv[1] if len(sys.argv) > 1 else os.environ.get("RUNNER_TEMP")
    with tempfile.TemporaryDirectory() as tmp:
        return reach(Path(given or tmp))


def reach(work: Path) -> int:
    copy, marker = work / "selfcheck-src", work / "selfcheck-reached.txt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree("src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    marker.write_text("")
    checks = {}
    for path in sorted((copy / "hodgeorbit").glob("*.py")):
        if found := self_checks(path):
            checks[path.name] = found
            mark(path, found, marker)
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"],
        env=env,
    )
    reached = set(marker.read_text().split())
    status = tests.returncode
    seen = set()
    for name, found in checks.items():
        for lineno, message in found:
            key = (name, message)
            seen.add(key)
            hit, expected = f"{name}:{lineno}" in reached, key not in KNOWN_UNREACHED
            verdict = "ok" if hit == expected else "FAIL"
            status |= verdict == "FAIL"
            print(f"{verdict:4} {'reached' if hit else 'unreached':9} {name}:{lineno} {message}")
    for name, message in sorted(KNOWN_UNREACHED - seen):
        print(f"FAIL listed but gone: {name} {message}")
        status = 1
    listed = len(KNOWN_UNREACHED & seen)
    print(f"{len(seen) - listed} self-checks to reach, {listed} listed unreached")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
