"""Benchmark of `rmps run` on four pinned experiment configs.

    python3 perfbench/run.py --workload q-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary

Closed loop: one client, one experiment process at a time, each started
fresh (see child.py), BLAS pinned to BLAS_THREADS threads.  Untraced runs
(``--trace 0``) report the end-to-end metrics as medians over the
processes of the run; traced runs (``--trace 1``) alternate untraced and
traced processes and report the per-layer metrics.  Every process's
tables are checked (workloads.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# The work is per-sample small matrices (4x4 to 128x128), which gain
# nothing from a second BLAS thread on two cores and spread more with it.
BLAS_THREADS = 1
# set-up is short and noisy, so each run also starts this many
# set-up-only processes and reports the median over all set-ups
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# traced layers and the fields reported for each: calls, s or self_s
_LAYER_FIELDS = [
    ("haar.haar_unitary", ("calls", "s")),
    ("haar.haar_state", ("s",)),
    ("mps.sample_rmps", ("calls", "s", "self_s")),
    ("mps.a_matrices_from_unitary", ("s",)),
    ("mps.site_density_matrices", ("s",)),
    ("mps.reduced_density_matrix", ("calls", "s", "self_s")),
    ("mps.norm_squared", ("calls", "s")),
    ("mps.to_dense", ("s",)),
    ("dense.DensityMatrix", ("calls", "s")),
    ("dense.purity_moment", ("s",)),
    ("dense.trace_distance", ("calls", "s")),
    ("ensembles.draw_mps", ("calls",)),
    ("ensembles.q_statistics", ("self_s",)),
    ("ensembles.moment_comparison", ("self_s",)),
    ("ensembles.purity_of_average_via_overlaps", ("self_s",)),
    ("ensembles.average_state_distance", ("self_s",)),
    ("cli.write_table", ("s",)),
    ("cli.run", ("self_s",)),
]
PER_LAYER = {f"{layer}.{field}": ("count" if field == "calls" else "s")
             for layer, fields in _LAYER_FIELDS for field in fields}
PER_LAYER.update({
    "ensembles.draws_per_sample": "ratio",
    "mps.norm_sweeps_per_sample": "ratio",
    "dense.eigensolves_per_sample": "ratio",
    "cli.predicted_over_measured": "ratio",
    "trace.overhead_s": "s",
})


class Unmeasurable(RuntimeError):
    """Set-up or every experiment process failed: there is nothing to report."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(config_path: Path, mode: str) -> tuple[dict | None, str]:
    """Run one child process; returns (report, error message)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(config_path), mode],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{mode} process exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"{mode} process exited {proc.returncode}: {tail[0]}"
    report = json.loads(out.strip().splitlines()[-1])
    src = ROOT / "src"
    if Path(report["rmps_file"]).resolve().parent.parent != src:
        return None, f"imported rmps from {report['rmps_file']}, not {src}"
    report["setup_raw_s"] = report["ready"] - start
    report["setup_s"] = report["setup_raw_s"] * speed.factor(report["burst_s"])
    if mode != "setup":
        # the probe's own time is not the program's
        busy = report["wall_raw_s"] - report["probe_spent_s"]
        report["speed"] = speed.factor(report["probe_s"] or report["burst_s"])
        report["wall_s"] = busy * report["speed"]
    return report, ""


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All processes of one benchmark run of one workload."""
    out = OUT_DIR / name
    config_path = OUT_DIR / f"{name}.json"
    OUT_DIR.mkdir(exist_ok=True)
    config_path.write_text(json.dumps(workloads.config(name, seed, out)))
    deadline = time.monotonic() + seconds

    setups = []
    for _ in range(SETUP_PROBES):
        report, error = spawn(config_path, "setup")
        if report is None:
            raise Unmeasurable(error)
        setups.append(report["setup_s"])

    # Each mode runs at least once; another process starts while it is
    # expected to end before the deadline.
    runs = {"run": [], "trace": []}
    errors, durations = [], []
    modes = ("run", "trace") if trace else ("run",)
    while True:
        mode = modes[len(durations) % len(modes)]
        shutil.rmtree(out, ignore_errors=True)
        start = time.monotonic()
        report, error = spawn(config_path, mode)
        durations.append(time.monotonic() - start)
        if report is None:
            errors.append(error)
        else:
            # a run with wrong tables still finished: its times count
            problems = workloads.check_outputs(name, seed, out)
            if problems:
                errors.append(f"{mode} output check: {problems[0]}")
            runs[mode].append(report)
            setups.append(report["setup_s"])
        if (len(durations) >= len(modes)
                and time.monotonic() + statistics.median(durations) > deadline):
            break
    return {"setups": setups, "runs": runs["run"], "traced": runs["trace"],
            "errors": errors, "attempted": len(durations)}


def end_to_end(m: dict) -> dict:
    runs = m["runs"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(m: dict) -> dict:
    traced = m["traced"]

    def med(fn):
        return statistics.median(fn(t["trace"]) for t in traced)

    values = {}
    for layer, fields in _LAYER_FIELDS:
        for field in fields:
            # span times at reference speed, like wall_s
            values[f"{layer}.{field}"] = statistics.median(
                t["trace"]["layers"][layer][field] * (1 if field == "calls" else t["speed"])
                for t in traced)

    def per(count_fn, denominator):
        return med(lambda t: count_fn(t) / max(t["counters"][denominator], 1))

    values["ensembles.draws_per_sample"] = per(
        lambda t: t["layers"]["ensembles.draw_mps"]["calls"], "mps_samples")
    values["mps.norm_sweeps_per_sample"] = per(
        lambda t: t["layers"]["mps.norm_squared"]["calls"], "mps_samples")
    values["dense.eigensolves_per_sample"] = per(
        lambda t: t["counters"]["eigensolves"], "samples")
    wall = statistics.median(r["wall_s"] for r in m["runs"])
    nominal = statistics.median(r["nominal_s"] for r in m["runs"])
    values["cli.predicted_over_measured"] = nominal / wall
    values["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - wall
    return values


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    """Machine, toolchain and source identity, recorded with every result."""
    probe = ("import json, numpy; cfg = numpy.show_config(mode='dicts');"
             "blas = cfg['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, blas.get('name'), blas.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    numpy_version, blas_name, blas_version = (json.loads(out.stdout) if out.returncode == 0
                                              else [None, None, None])
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rmps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def result_line(m: dict, values: dict, units: dict) -> dict:
    failed = len(m["errors"])
    return {"correct": failed == 0, "attempted": m["attempted"], "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def print_summary(name: str, m: dict, values: dict, units: dict) -> None:
    raw = sorted(r["wall_raw_s"] for r in m["runs"])
    speeds = sorted(r["speed"] for r in m["runs"])
    print(f"{name}: {m['attempted']} runs ({len(m['runs'])} untraced, "
          f"{len(m['traced'])} traced), {len(m['setups'])} set-ups; untraced raw "
          f"wall {raw[0]:.4f}-{raw[-1]:.4f} s at speed factor {speeds[0]:.3f}-{speeds[-1]:.3f}")
    for error in m["errors"]:
        print(f"  FAILED: {error}")
    for key, unit in units.items():
        print(f"  {key:<44} {values[key]:>14.6g} {unit}")
    print(f"  {'error_rate':<44} {len(m['errors']) / m['attempted']:>14.6g} ratio")
    for layer, info in (m["traced"][-1]["trace"]["layers"].items() if m["traced"] else ()):
        if info["calls"]:
            parents = ", ".join(f"{p}:{c}" for p, c in info["parents"].items())
            print(f"    span {layer:<42} calls {info['calls']:>7} raw "
                  f"s {info['s']:9.4f} self {info['self_s']:9.4f}  parents {parents}")
    if m["traced"] and m["traced"][-1]["trace"]["missing"]:
        print(f"  not traced (install point gone): {m['traced'][-1]['trace']['missing']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    m = measure(name, seed, seconds, trace)
    if not m["runs"] or (trace and not m["traced"]):
        raise Unmeasurable(f"{name}: every run failed: {m['errors']}")
    units = PER_LAYER if trace else END_TO_END
    values = per_layer(m) if trace else end_to_end(m)
    print_summary(name, m, values, units)
    return result_line(m, values, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rmps" / "__init__.py").is_file():
        print(f"error: no rmps package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except Unmeasurable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
