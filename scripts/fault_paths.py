"""Minor page faults of one benchmark workload at several checkout paths.

    python scripts/fault_paths.py TREE WORKLOAD [--paths K] [--seed S] [--scratch DIR]

Copies the source tree (its ``src`` and ``perfbench``) to K paths of
different depths and lengths in a fresh temporary directory (made in DIR
if given, DIR being created if missing), and at each one spawns the
workload's benchmark child as perfbench/run.py spawns it:
``perfbench/child.py CONFIG run`` from the copy's root, with the config
and tables under the copy's perfbench/out, the copy's ``src`` as
PYTHONPATH and one BLAS thread.  Per path it prints the raw
wall time of ``cli.run`` and the peak resident memory that the child
reports, and the child's minor faults, the growth of RUSAGE_CHILDREN
across it.  The workload config is read from the tree's
perfbench/workloads.py as Python syntax, never imported.  The last line
gives the fault spread, (max - min) / min.  The copies are removed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = 1


def workload(tree: Path, name: str) -> dict:
    """The literal WORKLOADS[name] of the tree's perfbench/workloads.py."""
    path = tree / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WORKLOADS" for t in node.targets):
            workloads = ast.literal_eval(node.value)
            if name not in workloads:
                raise SystemExit(f"no workload {name!r}; choose from {sorted(workloads)}")
            return workloads[name]
    raise SystemExit(f"no literal WORKLOADS in {path}")


def checkout_paths(base: Path, count: int) -> list[Path]:
    """``count`` distinct tree paths under base, the k-th k + 1 levels
    deep, with names of growing length."""
    return [base.joinpath(*(f"p{k}" + "x" * k for _ in range(k)), f"tree{k}")
            for k in range(count)]


def run_child(root: Path, name: str, config: dict) -> tuple[dict, int]:
    """The report of one benchmark child run from root, and its minor faults."""
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / f"{name}.json"
    config_path.write_text(json.dumps(dict(config, out=str(out / name))))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run([sys.executable, str(root / "perfbench" / "child.py"),
                           str(config_path), "run"],
                          cwd=root, env=env, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise SystemExit(f"child at {root} exited {done.returncode}: {tail[0]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="source tree with src/ and perfbench/")
    parser.add_argument("workload", help="a key of perfbench/workloads.py's WORKLOADS")
    parser.add_argument("--paths", type=int, default=6, help="checkout paths (default 6)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="where the copies go (default: the system temp dir)")
    args = parser.parse_args(argv)
    if args.paths < 1:
        parser.error("--paths must be at least 1")
    config = dict(workload(args.tree, args.workload), seed=args.seed, format="csv")
    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
    faults = []
    with tempfile.TemporaryDirectory(prefix="fault-paths-", dir=args.scratch) as tmp:
        for root in checkout_paths(Path(tmp), args.paths):
            for part in ("src", "perfbench"):
                shutil.copytree(args.tree / part, root / part,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            report, minor = run_child(root, args.workload, config)
            faults.append(minor)
            print(f"{root.relative_to(tmp)}: wall_raw_s {report['wall_raw_s']:.4f}  "
                  f"minor_faults {minor}  peak_rss_mb {report['peak_rss_mb']:.2f}")
            shutil.rmtree(root)
    print(f"{args.workload}: minor faults {min(faults)}-{max(faults)}, "
          f"spread {(max(faults) - min(faults)) / min(faults):.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
