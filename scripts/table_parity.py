"""Compare the tables two source trees write for the same configs.

    python scripts/table_parity.py PARENT_TREE CHANGE_TREE

Each tree runs, in its own process with its own ``src`` first on the
import path and one BLAS thread (OPENBLAS_NUM_THREADS=1), the TINY
configs of the parent's tests/test_cli.py at seed 5 and the parent's
benchmark workloads (perfbench/workloads.py) at seeds 0 and 11.  Both
files are read as Python syntax, never imported.  For every CSV table
the script prints "byte-identical" or how many cells moved and the
largest relative move.  It exits 1 if a run fails, a table is missing
from either tree, the two tables differ in shape or labels, or a number
moves by more than 1e-9 relative.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REL_TOL = 1e-9
TINY_SEED = 5
WORKLOAD_SEEDS = (0, 11)

# Runs every (config, out dir) job of a JSON list with the tree's rmps.
_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from rmps.cli import main
jobs = json.loads(Path(sys.argv[2]).read_text())
sys.exit(int(any(main(["run", cfg, "--out", out]) != 0 for cfg, out in jobs)))
"""


def _literal(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no literal {name} in {path}")


def configs(tree: Path) -> dict[str, dict]:
    """Label -> config body of every run: the TINY configs and the workloads."""
    runs = {f"tiny-{name}": dict(body, experiment=name, seed=TINY_SEED)
            for name, body in _literal(tree / "tests" / "test_cli.py", "TINY").items()}
    for name, body in _literal(tree / "perfbench" / "workloads.py", "WORKLOADS").items():
        runs.update({f"{name}-seed{seed}": dict(body, seed=seed) for seed in WORKLOAD_SEEDS})
    return runs


def write_tables(tree: Path, runs: dict[str, dict], work: Path, label: str) -> bool:
    """Run every config with ``tree``'s source in one process; True if all succeed."""
    jobs = []
    for run, body in runs.items():
        cfg = work / "configs" / f"{run}.json"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(body))
        jobs.append((str(cfg), str(work / label / run)))
    jobs_file = work / f"{label}-jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tree.resolve() / "src"),
                           str(jobs_file)], env=env, stdout=subprocess.DEVNULL)
    return done.returncode == 0


def _relative_move(a: str, b: str) -> float:
    """|a - b| / max(|a|, |b|) of two numeric cells; inf for other changed text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    scale = max(abs(x), abs(y))
    return 0.0 if x == y else abs(x - y) / scale


def compare(old: bytes, new: bytes) -> tuple[int, float]:
    """(moved cells, largest relative move) between two CSV tables; a
    header, row count or row length that differs counts as an infinite move."""
    a, b = (list(csv.reader(io.StringIO(t.decode()))) for t in (old, new))
    if a[:1] != b[:1] or len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return 1, float("inf")
    moves = [_relative_move(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb) if x != y]
    return len(moves), max(moves, default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    runs = configs(args.parent)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, tree in (("parent", args.parent), ("change", args.change)):
            if not write_tables(tree, runs, work, label):
                print(f"{label}: a run failed")
                ok = False
        for run in runs:
            old_dir, new_dir = work / "parent" / run, work / "change" / run
            names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
            if not names:
                print(f"{run}: no table")
                ok = False
            for name in names:
                old, new = old_dir / name, new_dir / name
                if not (old.is_file() and new.is_file()):
                    side = "parent" if new.is_file() else "change"
                    print(f"{run}/{name}: missing from the {side}")
                    ok = False
                    continue
                if old.read_bytes() == new.read_bytes():
                    print(f"{run}/{name}: byte-identical")
                    continue
                moved, largest = compare(old.read_bytes(), new.read_bytes())
                print(f"{run}/{name}: {moved} cells moved, largest relative move {largest:.3g}")
                ok = ok and largest <= REL_TOL
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
