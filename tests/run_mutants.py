"""Mutation check: every mutant in ``mutants.json`` must fail one of its tests.

Usage: ``python tests/run_mutants.py`` (from any directory; needs only numpy
and pytest). Each row of the table names a file under ``src/``, an exact
text, its replacement and the pytest node ids that guard it. For each row
the runner copies ``src/`` to a temporary directory, replaces the text,
which must occur exactly once, and runs only the row's nodes against the
copy with the repository's pytest settings. The row is killed when pytest
reports a failed test. Before the mutants, the same nodes run on an
unchanged copy and must pass, so that a failure is the mutant's doing. The
runner exits 1 when a text does not match exactly once, a baseline node
fails, or a mutant survives or cannot be run; otherwise 0. The file name
keeps pytest from collecting it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("mutants.json")
PYTEST_FAILED = 1  # pytest's exit code when tests ran and some failed


def run_nodes(src: Path, nodes: list[str]) -> subprocess.CompletedProcess:
    """pytest on nodes, importing risae from src only; stops at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *nodes], cwd=ROOT, env=env, capture_output=True, text=True)


def copy_source(into: Path, row: dict | None) -> Path:
    """A copy of src/ under into, with row's text replaced when a row is given."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if row is not None:
        path = into / row["file"]
        text = path.read_text(encoding="utf-8")
        count = text.count(row["text"])
        if count != 1:
            raise ValueError(f"{row['id']}: text occurs {count} times in {row['file']}")
        path.write_text(text.replace(row["text"], row["replacement"]), encoding="utf-8")
    return src


def main() -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    failures = []
    with tempfile.TemporaryDirectory(prefix="risae-mutants-") as tmp:
        nodes = sorted({node for row in rows for node in row["tests"]})
        started = time.perf_counter()
        result = run_nodes(copy_source(Path(tmp) / "baseline", None), nodes)
        print(f"baseline: pytest exit {result.returncode} "
              f"({time.perf_counter() - started:.1f}s)", flush=True)
        if result.returncode != 0:
            print(result.stdout[-3000:] + result.stderr[-2000:])
            return 1
        for row in rows:
            started = time.perf_counter()
            try:
                src = copy_source(Path(tmp) / row["id"], row)
            except ValueError as exc:
                print(f"{row['id']}: STALE, {exc}", flush=True)
                failures.append(row["id"])
                continue
            result = run_nodes(src, row["tests"])
            killed = result.returncode == PYTEST_FAILED
            print(f"{row['id']}: {'killed' if killed else 'SURVIVED'} "
                  f"(pytest exit {result.returncode}, {time.perf_counter() - started:.1f}s)",
                  flush=True)
            if not killed:
                print(result.stdout[-3000:] + result.stderr[-2000:])
                failures.append(row["id"])
    print(f"{len(rows) - len(failures)} of {len(rows)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
