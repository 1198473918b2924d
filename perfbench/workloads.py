"""Pinned experiment configs of the benchmark and the checks on their tables.

Each workload is one `rmps run` config.  At the pinned seed (0) every
table is compared with the values recorded in ``reference/<name>.json``:
integers and labels exactly, floats to 1e-9 relative.  Table bytes are
not compared, because the last digits of some floats depend on the BLAS
thread count.  At any other seed only invariants are checked.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import product
from pathlib import Path

PINNED_SEED = 0
REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Why each workload is here (the benchmark README has the measured shares):
#   q-sweep        sampler (32x32 QRs) and the one-site environment sweep;
#                  no eigensolves, no pairwise block, no dense code.
#   block-moments  block RDM assembly and its extra norm sweep; every state
#                  is drawn again for each moment order.
#   pair-overlaps  the O(r^2) one-against-many overlap block; 4x4 QRs bound
#                  by per-call overhead; batch arrays grow with r.
#   dense-average  rmps.dense: jackknife trace_distance eigensolves at
#                  128x128; MPS sweeps do almost none of the work.
WORKLOADS = {
    "q-sweep": {"experiment": "q-histogram", "r": 1000,
                "params": {"n": 8, "chi": 16, "bins": 100}},
    "block-moments": {"experiment": "moments-vs-chi", "r": 200,
                      "params": {"n": 6, "d_a": 8, "ms": [2, 3, 4],
                                 "chis": [2, 4, 8, 16]}},
    "pair-overlaps": {"experiment": "purity-error", "r": 800,
                      "params": {"chi": 2, "ns": [20]}},
    "dense-average": {"experiment": "chi-independence", "r": 500,
                      "params": {"n": 7, "chis": [2, 4]}},
}


def config(name: str, seed: int, out: Path) -> dict:
    """The config file contents for one run of a workload."""
    return dict(WORKLOADS[name], seed=seed, format="csv", out=str(out))


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_tables(out_dir: Path) -> dict:
    """Every CSV table of a run as {name: {"columns": [...], "rows": [...]}}."""
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        tables[path.stem] = {"columns": rows[0],
                             "rows": [[_cell(c) for c in row] for row in rows[1:]]}
    return tables


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return type(got) is type(want) and got == want


def compare_reference(name: str, tables: dict) -> list[str]:
    """Differences between a run's tables and the recorded reference."""
    want = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    if sorted(tables) != sorted(want):
        return [f"tables {sorted(tables)} != reference {sorted(want)}"]
    problems = []
    for tname, ref in want.items():
        got = tables[tname]
        if got["columns"] != ref["columns"] or len(got["rows"]) != len(ref["rows"]):
            problems.append(f"{tname}: shape differs from the reference")
            continue
        for i, (grow, rrow) in enumerate(zip(got["rows"], ref["rows"])):
            for col, g, r in zip(ref["columns"], grow, rrow):
                if not _same(g, r):
                    problems.append(f"{tname} row {i} {col}: {g!r} != reference {r!r}")
    return problems


def _column(table: dict, name: str) -> list:
    return [row[table["columns"].index(name)] for row in table["rows"]]


def _finite(values, lo=-math.inf, hi=math.inf) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) and lo <= v <= hi
               for v in values)


def _check_q_sweep(t: dict, cfg: dict) -> list[str]:
    hist, stats = t["q_histogram"], t["q_stats"]
    counts = _column(hist, "count")
    left, right = _column(hist, "bin_left"), _column(hist, "bin_right")
    problems = []
    if len(counts) != cfg["params"]["bins"]:
        problems.append(f"histogram has {len(counts)} bins")
    if not all(isinstance(c, int) and c >= 0 for c in counts) or sum(counts) != cfg["r"]:
        problems.append(f"histogram counts do not sum to r = {cfg['r']}")
    if left[0] != 0.0 or right[-1] != 1.0 or left[1:] != right[:-1]:
        problems.append("histogram bins do not tile [0, 1]")
    if not (_finite(_column(stats, "mean"), 0.0, 1.0)
            and _finite(_column(stats, "stddev"), 0.0, 1.0)
            and _finite(_column(stats, "stderr_mean"), 0.0)
            and _finite(_column(stats, "stderr_stddev"), 0.0)
            and _finite(_column(stats, "haar_mean"), 0.0, 1.0)):
        problems.append("Q statistics not finite or out of [0, 1]")
    return problems


def _check_block_moments(t: dict, cfg: dict) -> list[str]:
    tab = t["moments_vs_chi"]
    p = cfg["params"]
    problems = []
    grid = [[chi, m] for chi, m in product(p["chis"], p["ms"])]
    if [row[:2] for row in tab["rows"]] != grid:
        problems.append("(chi, m) rows differ from the config grid")
    if not (_finite(_column(tab, "abs_deviation"), 0.0, 1.0)
            and _finite(_column(tab, "stderr"), 0.0)
            and _finite(_column(tab, "haar_value"), 0.0, 1.0)):
        problems.append("moment deviations not finite or out of range")
    return problems


def _check_pair_overlaps(t: dict, cfg: dict) -> list[str]:
    tab = t["purity_relative_error"]
    p = cfg["params"]
    problems = []
    if [row[:2] for row in tab["rows"]] != [[n, p["chi"]] for n in p["ns"]]:
        problems.append("(n, chi) rows differ from the config")
    # the cross term is a sum of squared overlaps, so it is >= 0
    if not (_finite(_column(tab, "relative_error"), -1.0)
            and _finite(_column(tab, "stderr"), 0.0)):
        problems.append("relative errors not finite or below -1")
    return problems


def _check_dense_average(t: dict, cfg: dict) -> list[str]:
    tab = t["chi_independence"]
    chis = cfg["params"]["chis"]
    problems = []
    want = [[f"rmps-chi{c}", c] for c in chis] + [["cue", 0]]
    if [row[:2] for row in tab["rows"]] != want:
        problems.append("(label, chi) rows differ from the config")
    if not (_finite(_column(tab, "distance"), 0.0, 2.0)
            and _finite(_column(tab, "stderr"), 0.0)):
        problems.append("trace distances not finite or out of [0, 2]")
    return problems


_INVARIANTS = {
    "q-sweep": _check_q_sweep,
    "block-moments": _check_block_moments,
    "pair-overlaps": _check_pair_overlaps,
    "dense-average": _check_dense_average,
}


def check_outputs(name: str, seed: int, out_dir: Path) -> list[str]:
    """Problems found in a finished run's output directory (empty = correct)."""
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["no manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("status") != "ok":
        return [f"manifest status {manifest.get('status')!r}: {manifest.get('error')}"]
    tables = read_tables(out_dir)
    if sorted(f"{t}.csv" for t in tables) != sorted(o["file"] for o in manifest["outputs"]):
        return ["table files differ from the manifest's outputs"]
    try:
        problems = _INVARIANTS[name](tables, WORKLOADS[name])
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"malformed tables: {type(exc).__name__}: {exc}"]
    if seed == PINNED_SEED and not problems:
        problems = compare_reference(name, tables)
    return problems
