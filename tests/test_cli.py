"""Tests for the experiment registry and command line runner."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rmps import dense, ensembles, mps
from rmps.cli import PAULI, REGISTRY, cost_estimate, load_config, main, plan, validate_config
from rmps.errors import DimensionError
from rmps.mps import LocalObservable, sample_rmps

# Small parameter sets that exercise every registered experiment quickly.
TINY = {
    "avg-state-convergence": {"r": 30, "params": {"n": 3, "chi": 2}},
    "subsystem-convergence": {"r": 20, "params": {"n": 4, "chi": 2, "max_length": 2}},
    "bound-comparison": {"r": 20, "params": {"chi": 4, "bath_sizes": [3, 4]}},
    "chi-independence": {"r": 30, "params": {"n": 2, "chis": [2, 4]}},
    "distance-vs-chi": {"r": 30, "params": {"n": 3, "chis": [1, 2]}},
    "linear-chi-scan": {"r": 30, "params": {"ns": [2, 3], "ratio": 1}},
    "purity-scaling": {"params": {"n": 6, "chi": 2, "r_values": [10, 20]}},
    "purity-error": {"r": 30, "params": {"chi": 2, "ns": [6, 8]}},
    "q-histogram": {"r": 50, "params": {"n": 4, "chi": 2, "bins": 20}},
    "q-vs-chi": {"r": 40, "params": {"n": 4, "chis": [2, 4]}},
    "q-stddev": {"r": 40, "params": {"n": 4, "chis": [2, 4]}},
    "moments-vs-chi": {"r": 30, "params": {"n": 4, "d_a": 4, "ms": [2], "chis": [2, 4]}},
    "min-eig-vs-chi": {"r": 30, "params": {"n": 4, "d_a": 4, "chis": [2, 4]}},
    "concentration-scan": {"r": 40, "params": {"ns": [3, 4], "chi_rule": "const:2"}},
    "twirl-compare": {"params": {"n_copies": 2, "dim": 2, "r_values": [50, 100]}},
}


# Recorded tables of every TINY config at seed 5; they pin each
# experiment's seed map and table layout across versions.  Integers and
# labels are compared exactly, floats to 1e-9 relative, because the last
# digits of some floats depend on the BLAS thread count.
GOLDEN_TABLES = Path(__file__).resolve().parent / "data" / "tiny_tables_seed5.json"


def write_cfg(tmp_path, name, body=None, fname="cfg.json"):
    body = dict(body or {})
    body["experiment"] = name
    path = tmp_path / fname
    path.write_text(json.dumps(body))
    return path


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_list_names_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) >= 15
    for name in REGISTRY:
        assert name in out


def test_every_registered_experiment_runs(tmp_path):
    """Registry closure: each identifier is accepted by run and produces
    its tables plus an ok manifest with matching checksums."""
    assert set(TINY) == set(REGISTRY)
    for name, body in TINY.items():
        body = dict(body)
        body["seed"] = 5
        cfg = write_cfg(tmp_path, name, body, fname=f"{name}.json")
        out_dir = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0, name
        manifest = read_manifest(out_dir)
        assert manifest["status"] == "ok"
        assert manifest["experiment"] == name
        assert manifest["outputs"], name
        for entry in manifest["outputs"]:
            path = out_dir / entry["file"]
            assert path.exists()
            lines = path.read_text().splitlines()
            assert len(lines) == entry["rows"] + 1  # header + data
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _same_cell(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(got, want, rel_tol=1e-9,
                                                       abs_tol=0.0)
    return type(got) is type(want) and got == want


def test_tiny_tables_match_golden(tmp_path):
    """Every experiment's TINY config at seed 5 reproduces the recorded
    tables: same table names, columns and row count, and every cell."""
    golden = json.loads(GOLDEN_TABLES.read_text())
    assert set(golden) == set(TINY)
    for name, body in TINY.items():
        cfg = write_cfg(tmp_path, name, dict(body, seed=5), fname=f"{name}.json")
        out_dir = tmp_path / name
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0, name
        got = {}
        for path in out_dir.glob("*.csv"):
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            got[path.stem] = (header, [[_cell(c) for c in row] for row in rows])
        assert sorted(got) == sorted(golden[name]), name
        for tname, want in golden[name].items():
            header, rows = got[tname]
            assert header == want["columns"], (name, tname)
            assert len(rows) == len(want["rows"]), (name, tname)
            for i, (row, want_row) in enumerate(zip(rows, want["rows"])):
                assert all(_same_cell(g, w) for g, w in zip(row, want_row)), \
                    (name, tname, i, row, want_row)


def test_unknown_experiment_rejected_naming_registry(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "not-an-experiment")
    assert main(["run", str(cfg)]) == 2
    assert "known:" in capsys.readouterr().err


def test_avg_state_convergence_table(tmp_path):
    """Full-Haar three-qubit run: one row per sample prefix and a downward
    trend of the running distance."""
    cfg = write_cfg(tmp_path, "avg-state-convergence",
                    {"r": 500, "seed": 3, "params": {"source": "cue", "n": 3}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    lines = (out_dir / "distance_vs_r.csv").read_text().splitlines()
    assert lines[0] == "r_prefix,trace_distance"
    assert len(lines) == 501
    dist = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert dist[-50:].mean() < dist[:50].mean()


def test_concentration_scan_table_follows_library_seed_map(tmp_path):
    """The concentration-scan plan seeds each chain length as
    ensembles.concentration_scan does, so its TINY table equals that
    function's reports cell for cell."""
    body = TINY["concentration-scan"]
    cfg = write_cfg(tmp_path, "concentration-scan", dict(body, seed=5))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    rows = [[_cell(c) for c in line.split(",")]
            for line in (out_dir / "concentration.csv").read_text().splitlines()[1:]]
    params = body["params"]
    reports = ensembles.concentration_scan(LocalObservable((PAULI["z"],), 0), lambda n: 2,
                                           params["ns"], body["r"], 5)
    assert len(rows) == len(reports) == len(params["ns"])
    for row, n, rep in zip(rows, params["ns"], reports):
        assert row == [n, 2, rep.value, rep.stderr, float(rep.per_sample.mean())]


def test_q_histogram_counts_conserved(tmp_path):
    """Ten thousand samples land in exactly ten thousand histogram counts."""
    cfg = write_cfg(tmp_path, "q-histogram",
                    {"r": 10000, "seed": 1, "params": {"n": 8, "chi": 16}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    lines = (out_dir / "q_histogram.csv").read_text().splitlines()
    assert len(lines) == 101  # header + 100 bins
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 10000


def test_identical_configs_reproduce_identical_bytes(tmp_path):
    cfg = write_cfg(tmp_path, "distance-vs-chi",
                    {"r": 40, "seed": 9, "params": {"n": 3, "chis": [1, 2]}})
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
        outs.append(out_dir)
    a, b = (read_manifest(d) for d in outs)
    assert [e["sha256"] for e in a["outputs"]] == [e["sha256"] for e in b["outputs"]]
    assert (outs[0] / "distance_vs_chi.csv").read_bytes() == \
        (outs[1] / "distance_vs_chi.csv").read_bytes()


def test_worker_count_never_affects_outputs(tmp_path):
    """A per-sample (concentration-scan), a pairwise (purity-error) and a
    block (moments-vs-chi) experiment write the same bytes at any
    --workers."""
    cases = [("concentration-scan",
              {"r": 60, "seed": 2, "params": {"ns": [3, 4], "chi_rule": "const:2"}},
              "concentration.csv")]
    cases += [(name, dict(TINY[name], seed=2), table) for name, table in (
        ("purity-error", "purity_relative_error.csv"), ("moments-vs-chi", "moments_vs_chi.csv"))]
    for name, body, table in cases:
        cfg = write_cfg(tmp_path, name, body, fname=f"{name}.json")
        data = {}
        for workers in ("1", "4"):
            out_dir = tmp_path / f"{name}-w{workers}"
            assert main(["run", str(cfg), "--workers", workers, "--out", str(out_dir)]) == 0
            data[workers] = (out_dir / table).read_bytes()
        assert data["1"] == data["4"], name


def test_chunk_size_never_affects_outputs(tmp_path, monkeypatch):
    """Every chunked experiment writes byte-identical tables whatever the
    number of samples per chunk, on matrix product state and CUE sources
    (chi-independence has a CUE row), on a ring and on a homogeneous
    chain, with r not a multiple of 3 so the last chunk is a short one.
    A cue source takes no chi, so its cases drop it."""
    cases = [(name, TINY[name]["params"]) for name in (
        "q-histogram", "q-vs-chi", "moments-vs-chi", "min-eig-vs-chi", "subsystem-convergence",
        "chi-independence", "avg-state-convergence", "concentration-scan")]
    cases += [(name, dict({k: v for k, v in TINY[name]["params"].items() if k != "chi"},
                          source="cue"))
              for name in ("q-histogram", "bound-comparison")]
    cases += [("q-histogram", dict(TINY["q-histogram"]["params"], **chain))
              for chain in ({"boundary": "pbc"}, {"homogeneous": True})]
    default = ensembles._CHUNK_SAMPLES
    data = {}
    for chunk in (1, 3, default):
        monkeypatch.setattr(ensembles, "_CHUNK_SAMPLES", chunk)
        for k, (name, params) in enumerate(cases):
            body = dict(TINY[name], params=params, seed=5)
            body["r"] += 1 if body["r"] % 3 == 0 else 0
            out_dir = tmp_path / f"{k}-{chunk}"
            cfg = write_cfg(tmp_path, name, body, fname=f"{k}.json")
            assert main(["run", str(cfg), "--out", str(out_dir)]) == 0, name
            for path in sorted(out_dir.glob("*.csv")):
                data.setdefault((k, name, path.name), []).append(path.read_bytes())
    assert len(data) == 16
    for key, tables in data.items():
        assert tables[0] == tables[1] == tables[2], key


def test_flag_overrides_win_over_file(tmp_path):
    cfg = write_cfg(tmp_path, "q-vs-chi",
                    {"r": 40, "seed": 1, "params": {"n": 4, "chis": [2]}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--seed", "99", "--override", "r=25",
                 "--out", str(out_dir)]) == 0
    manifest = read_manifest(out_dir)
    assert manifest["config"]["seed"] == 99
    assert manifest["config"]["r"] == 25


def test_override_parsing_and_unknown_keys(tmp_path):
    cfg = write_cfg(tmp_path, "q-vs-chi", {"r": 20, "params": {"n": 4}})
    # JSON-typed override values land in params
    loaded = load_config(cfg, overrides=["chis=[2,4]", "r=15"])
    assert loaded.params["chis"] == [2, 4]
    assert loaded.r == 15
    assert main(["run", str(cfg), "--override", "bogus_key=3",
                 "--out", str(cfg.parent / "x")]) == 2
    assert main(["run", str(cfg), "--override", "no_equals_sign",
                 "--out", str(cfg.parent / "y")]) == 2


def test_overrides_count_as_set_params(tmp_path):
    """A param an override sets counts as set, as one the file sets does:
    a cue source and a chi set by either refuse each other."""
    cue = write_cfg(tmp_path, "avg-state-convergence", {"r": 20, "params": {"source": "cue"}})
    assert load_config(cue).given == {"source"}
    assert load_config(cue, overrides=["chi=64", "r=15"]).given == {"source", "chi"}
    assert main(["run", str(cue), "--override", "chi=64", "--out", str(tmp_path / "a")]) == 2
    chi = write_cfg(tmp_path, "avg-state-convergence", {"r": 20, "params": {"chi": 4}},
                    fname="chi.json")
    assert main(["validate", str(chi), "--override", "source=cue"]) == 2
    assert main(["run", str(chi), "--out", str(tmp_path / "b")]) == 0


def test_config_validation_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", str(bad_json)]) == 2
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]")
    assert main(["run", str(not_object)]) == 2
    unknown_top = write_cfg(tmp_path, "q-vs-chi", {"chis": [2]}, fname="top.json")
    assert main(["run", str(unknown_top)]) == 2  # params must nest under "params"
    bad_format = write_cfg(tmp_path, "q-vs-chi", {"format": "xml"}, fname="fmt.json")
    assert main(["run", str(bad_format)]) == 2
    # a top-level value of the wrong JSON type exits 2 from validate and
    # from run, before anything is drawn or written
    for k, bad in enumerate([{"r": 2.9}, {"r": True}, {"seed": True}, {"seed": 1.5},
                             {"out": 5}, {"experiment": ["q-vs-chi"]}]):
        out_dir = tmp_path / f"malformed{k}"
        path = tmp_path / f"malformed{k}.json"
        path.write_text(json.dumps(dict({"experiment": "q-vs-chi", "r": 20,
                                         "out": str(out_dir),
                                         "params": {"n": 3, "chis": [2]}}, **bad)))
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2, (command, bad)
        assert not out_dir.exists(), bad


def test_missing_config_file_is_io_failure(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 4


def test_unwritable_output_is_io_failure(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cfg = write_cfg(tmp_path, "q-vs-chi", {"r": 20, "params": {"n": 3, "chis": [2]}})
    assert main(["run", str(cfg), "--out", str(blocker / "sub")]) == 4


def test_cap_exceeded_exit_code_and_manifest(tmp_path):
    """A run that would build an oversized dense object exits 3 and still
    leaves a manifest describing the failure."""
    cfg = write_cfg(tmp_path, "avg-state-convergence",
                    {"r": 5, "params": {"n": 14, "chi": 2}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 3
    manifest = read_manifest(out_dir)
    assert manifest["status"] == "error"
    assert "cap" in manifest["error"]
    assert manifest["outputs"] == []


@pytest.mark.parametrize("name, body", [
    ("bound-comparison", {"r": 3, "params": {"bath_sizes": [14400]}}),
    ("avg-state-convergence", {"r": 3, "params": {"n": 14400}})],
    ids=["bound-comparison", "avg-state-convergence"])
def test_cap_error_on_a_long_chain_exits_3(tmp_path, name, body):
    """A cap failure at a dimension of more than 4300 decimal digits
    still exits 3 with the cap in the manifest's error."""
    cfg = write_cfg(tmp_path, name, body)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 3
    assert "exceeds cap" in read_manifest(out_dir)["error"]


def test_min_eig_vs_chi_exact_reference_and_cap(tmp_path):
    """The reference column holds the exact Haar mean of the 2-by-8 split
    and the deviation is measured from it; a split beyond the exact
    reference's cap exits 3 before sampling, and d_a = 0 exits 2."""
    cfg = write_cfg(tmp_path, "min-eig-vs-chi",
                    {"r": 30, "seed": 4, "params": {"n": 4, "d_a": 2, "chis": [2, 4]}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    lines = (out_dir / "min_eig_vs_chi.csv").read_text().splitlines()
    assert lines[0] == "chi,mean_min_eig,stderr,reference,abs_deviation"
    for line in lines[1:]:
        _, mean, _, ref, dev = (float(c) for c in line.split(","))
        assert ref == 0.303619384765625
        assert dev == abs(mean - ref)
    big = write_cfg(tmp_path, "min-eig-vs-chi",
                    {"r": 5, "params": {"n": 20, "d_a": 4, "chis": [2]}}, fname="big.json")
    big_out = tmp_path / "big"
    assert main(["run", str(big), "--out", str(big_out)]) == 3
    assert "exceeds cap" in read_manifest(big_out)["error"]
    assert any("exceeds cap" in p for p in validate_config(load_config(big)))
    zero = write_cfg(tmp_path, "min-eig-vs-chi", {"params": {"n": 4, "d_a": 0}},
                     fname="zero.json")
    assert main(["run", str(zero), "--out", str(tmp_path / "zero")]) == 2


def test_moments_vs_chi_rejects_empty_subsystem(tmp_path):
    """d_a = 0 is a configuration error (exit 2, error manifest), not a
    crash while forming the complement dimension."""
    cfg = write_cfg(tmp_path, "moments-vs-chi", {"params": {"n": 4, "d_a": 0}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
    manifest = read_manifest(out_dir)
    assert manifest["status"] == "error"
    assert "d_a must be positive" in manifest["error"]


def test_jsonl_format(tmp_path):
    cfg = write_cfg(tmp_path, "q-stddev",
                    {"r": 30, "format": "jsonl", "params": {"n": 4, "chis": [2]}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    lines = (out_dir / "q_stddev_vs_chi.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in lines]
    assert rows and set(rows[0]) == {"chi", "q_stddev", "stderr"}


def test_csv_and_jsonl_hold_the_same_cells(tmp_path):
    """Every TINY table written as CSV and as JSONL holds the same
    cells: each JSONL value equals its CSV cell parsed back, integers
    and labels exactly, and a float's repr is the CSV text."""
    for name, body in TINY.items():
        paths = {}
        for fmt in ("csv", "jsonl"):
            cfg = write_cfg(tmp_path, name, dict(body, seed=5, format=fmt),
                            fname=f"{name}-{fmt}.json")
            out_dir = tmp_path / f"{name}-{fmt}"
            assert main(["run", str(cfg), "--out", str(out_dir)]) == 0, (name, fmt)
            paths[fmt] = sorted(out_dir.glob(f"*.{fmt}"))
        assert [p.stem for p in paths["csv"]] == [p.stem for p in paths["jsonl"]], name
        for csv_path, jsonl_path in zip(paths["csv"], paths["jsonl"]):
            header, *rows = (line.split(",") for line in csv_path.read_text().splitlines())
            records = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
            assert rows and len(records) == len(rows), csv_path.stem
            for row, record in zip(rows, records):
                assert sorted(record) == sorted(header), csv_path.stem
                for column, text in zip(header, row):
                    got, want = _cell(text), record[column]
                    assert type(got) is type(want) and got == want, (name, column, text)
                    assert not isinstance(want, float) or repr(want) == text


def test_csv_floats_round_trip(tmp_path):
    """Every numeric cell is written at full precision: parsing it back and
    re-printing reproduces the byte string."""
    cfg = write_cfg(tmp_path, "distance-vs-chi",
                    {"r": 30, "params": {"n": 3, "chis": [2]}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    lines = (out_dir / "distance_vs_chi.csv").read_text().splitlines()[1:]
    for line in lines:
        for cell in line.split(",")[1:]:
            assert repr(float(cell)) == cell


def test_validate_accepts_and_estimates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "purity-scaling", {"params": {"n": 20, "chi": 2}})
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "ok: purity-scaling" in out
    assert "estimate:" in out


@pytest.mark.parametrize("name", ["purity-scaling", "twirl-compare"])
def test_r_values_entries_refuse_a_top_level_r(tmp_path, capsys, name):
    """An entry whose sample counts come from r_values has no default r:
    a top-level r in the file exits 2 from validate and from run (the
    PREFLIGHT rows set it as a param, as an override does), and a run
    without one records r as null."""
    assert REGISTRY[name].default_r is None
    cfg = write_cfg(tmp_path, name, {"r": 10, "params": TINY[name]["params"]})
    assert main(["validate", str(cfg)]) == 2
    assert "no top-level r" in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "no top-level r" in read_manifest(tmp_path / "bad")["error"]
    cfg = write_cfg(tmp_path, name, TINY[name], fname="tiny.json")
    assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    assert read_manifest(tmp_path / "ok")["config"]["r"] is None


def test_validate_flags_cap_problems(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "avg-state-convergence",
                    {"r": 10, "params": {"n": 50, "chi": 200}})
    assert main(["validate", str(cfg)]) == 2
    assert "exceeds cap" in capsys.readouterr().out


def test_validate_names_violated_precondition(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "q-vs-chi", {"r": -5})
    assert main(["validate", str(cfg)]) == 2
    assert "r must be positive" in capsys.readouterr().err


def test_validate_config_diagnostics_direct(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "concentration-scan",
                                {"params": {"chi_rule": "cubic:2"}}))
    problems = validate_config(cfg)
    assert any("chi_rule" in p for p in problems)


# (experiment, params, validate exit, run exit, text of the run's error)
PREFLIGHT = [
    ("q-histogram", {"n": 11, "chi": 2}, 0, 0, None),
    ("bound-comparison", {"bath_sizes": [10], "source": "rmps"}, 0, 0, None),
    ("bound-comparison", {"bath_sizes": [10], "source": "cue"}, 0, 0, None),
    ("subsystem-convergence", {"n": 4, "max_length": 5}, 2, 2, "max_length"),
    ("subsystem-convergence", {"n": 11, "max_length": 11}, 2, 3, "exceeds cap"),
    ("concentration-scan", {"ns": [8, 10, 3], "site": 4}, 2, 2, "does not fit"),
    ("q-histogram", {"bins": 0}, 2, 2, "bins"),
    # a histogram row per bin: the bin count is capped like any array
    ("q-histogram", {"bins": 2**16}, 0, 0, None),
    ("q-histogram", {"bins": 2**16 + 1}, 2, 3, "exceeds cap"),
    ("q-histogram", {"bins": 10**9}, 2, 3, "exceeds cap"),
    ("purity-scaling", {"r_values": [300, 0]}, 2, 2, "sample count must be positive"),
    ("distance-vs-chi", {"norm": "l1"}, 2, 2, "norm must be"),
    ("q-histogram", {"boundary": "open"}, 2, 2, "boundary must be"),
    ("q-histogram", {"source": "haar"}, 2, 2, "source must be 'rmps' or 'cue'"),
    ("q-vs-chi", {"chis": 4}, 2, 2, "wrong type"),
    # a param takes its default's JSON type: 4.5 and 1.7 are not truncated
    # to 4 and 1, and true is not an integer
    ("moments-vs-chi", {"d_a": 4.5}, 2, 2, "wrong type"),
    ("concentration-scan", {"site": 1.7}, 2, 2, "wrong type"),
    ("distance-vs-chi", {"chis": [2, True]}, 2, 2, "wrong type"),
    ("linear-chi-scan", {"ratio": 0}, 2, 2, "ratio must be at least 1"),
    ("moments-vs-chi", {"n": 4, "d_a": 1}, 2, 2, "leading-block"),
    ("min-eig-vs-chi", {"n": 4, "d_a": 1}, 2, 2, "leading-block"),
    ("concentration-scan", {"r": 1}, 2, 2, "r >= 2"),
    # every planned ensemble needs two samples for its error bar
    ("purity-scaling", {"r_values": [50, 1]}, 2, 2, "r >= 2"),
    ("purity-error", {"r": 1}, 2, 2, "r >= 2"),
    ("subsystem-convergence", {"r": 1}, 2, 2, "r >= 2"),
    ("bound-comparison", {"r": 1}, 2, 2, "r >= 2"),
    ("chi-independence", {"r": 1}, 2, 2, "r >= 2"),
    ("distance-vs-chi", {"r": 1}, 2, 2, "r >= 2"),
    ("linear-chi-scan", {"r": 1}, 2, 2, "r >= 2"),
    ("moments-vs-chi", {"r": 1}, 2, 2, "r >= 2"),
    ("min-eig-vs-chi", {"r": 1}, 2, 2, "r >= 2"),
    ("avg-state-convergence", {"r": 1}, 2, 2, "r >= 2"),
    ("q-histogram", {"r": 1}, 2, 2, "r >= 2"),
    ("q-vs-chi", {"r": 1}, 2, 2, "r >= 2"),
    ("q-stddev", {"r": 1}, 2, 2, "r >= 2"),
    ("bound-comparison", {"bath_sizes": [0]}, 2, 2, "bath_sizes"),
    # a leave-one-out jackknife of two samples leaves one, with no spread
    ("chi-independence", {"r": 2}, 2, 2, "r >= 3"),
    ("distance-vs-chi", {"r": 2}, 2, 2, "r >= 3"),
    ("linear-chi-scan", {"r": 2}, 2, 2, "r >= 3"),
    ("purity-error", {"r": 2}, 2, 2, "r >= 3"),
    ("purity-scaling", {"r_values": [50, 2]}, 2, 2, "r >= 3"),
    # homogeneous chains do not average to I/d, so the plans that compare
    # against I/d or 1/d on two or more sites reject them; a one-site
    # block and the plans with no mixed reference accept them
    ("avg-state-convergence", {"homogeneous": True}, 2, 2, "reference I/d"),
    ("subsystem-convergence", {"homogeneous": True, "max_length": 2}, 2, 2, "reference I/d"),
    ("purity-scaling", {"homogeneous": True}, 2, 2, "reference 1/d"),
    ("purity-error", {"homogeneous": True}, 2, 2, "reference 1/d"),
    ("subsystem-convergence", {"homogeneous": True, "max_length": 1}, 0, 0, None),
    ("q-histogram", {"homogeneous": True}, 0, 0, None),
    # a cue source draws no chain, so it refuses the chain settings it
    # would ignore
    ("q-histogram", {"source": "cue", "boundary": "pbc"}, 2, 2, "cue source takes only"),
    ("q-histogram", {"source": "cue", "boundary": "bogus"}, 2, 2, "cue source takes only"),
    ("avg-state-convergence", {"source": "cue", "homogeneous": True}, 2, 2,
     "cue source takes only"),
    # nor a chi set beside it; the default chi, and a chi beside
    # bound-comparison's default cue source, are accepted
    ("avg-state-convergence", {"source": "cue", "chi": 64, "n": 3}, 2, 2, "takes no chi"),
    ("avg-state-convergence", {"source": "cue", "n": 3}, 0, 0, None),
    ("bound-comparison", {"source": "cue", "chi": 8}, 2, 2, "takes no chi"),
    ("bound-comparison", {"chi": 8, "bath_sizes": [3]}, 0, 0, None),
    # the entries whose sample counts come from r_values take no r
    ("purity-scaling", {"r": 20}, 2, 2, "no top-level r"),
    ("twirl-compare", {"r": 20}, 2, 2, "no top-level r"),
]


def test_run_and_validate_share_one_preflight(tmp_path, monkeypatch):
    """validate and run reach the same verdict on each config, and a run
    that fails does so before its first draw, with an error manifest."""
    draws = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            draws.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ensembles, "_draw_stack", counted(ensembles._draw_stack))
    for k, (name, params, validate_code, run_code, error) in enumerate(PREFLIGHT):
        case = (name, params)
        body = {"params": params} if REGISTRY[name].default_r is None \
            else {"r": 20, "params": params}
        cfg = write_cfg(tmp_path, name, body, fname=f"{k}.json")
        assert main(["validate", str(cfg)]) == validate_code, case
        draws.clear()
        out_dir = tmp_path / f"out{k}"
        assert main(["run", str(cfg), "--out", str(out_dir)]) == run_code, case
        manifest = read_manifest(out_dir)
        if run_code:
            assert draws == [], case
            assert manifest["status"] == "error", case
            assert error in manifest["error"], (case, manifest["error"])
        else:
            assert draws and manifest["status"] == "ok", case


@pytest.mark.parametrize("op, site, fits", [
    (np.eye(3), 0, False),
    (PAULI["z"], 4, False),
    (PAULI["z"], 3, True),
], ids=["qutrit", "past_last_site", "exact_fit"])
def test_observable_fit_is_checked_by_every_caller(tmp_path, monkeypatch, op, site, fits):
    """A one-site observable on a 4-site qubit chain: a qutrit operator
    and a site past the last one raise DimensionError from the state,
    the ensemble estimator and the concentration-scan plan, with no
    draw; the last site fits all three."""
    draws = []  # the sample indices drawn
    draw = ensembles._draw_stack
    monkeypatch.setattr(ensembles, "_draw_stack", lambda spec, part, *amplitudes:
                        draws.extend(range(part.start, part.stop)) or draw(spec, part, *amplitudes))
    monkeypatch.setitem(PAULI, "t", op)
    obs = LocalObservable((op,), site)
    state = sample_rmps(4, 2, 2, 0)
    spec = ensembles.EnsembleSpec(ensembles.RmpsSource(4, 2, 2), 3, 0)
    cfg = load_config(write_cfg(tmp_path, "concentration-scan",
                                {"r": 3, "params": {"op": "t", "site": site, "ns": [4],
                                                    "chi_rule": "const:2"}}))
    callers = [lambda: state.expectation(obs), lambda: ensembles.concentration(spec, obs),
               lambda: plan(cfg)]
    for call in callers:
        if fits:
            call()
        else:
            with pytest.raises(DimensionError, match="does not fit"):
                call()
    assert len(draws) == (3 if fits else 0)


def test_cost_estimate_sums_planned_grid(tmp_path):
    """The linear scan's defaults plan six (n, chi = n) ensembles of 300
    samples; the estimate sums those, not every n against every chi."""
    cfg = load_config(write_cfg(tmp_path, "linear-chi-scan"))
    units = re.search(r"~(\S+) contraction units", cost_estimate(cfg)).group(1)
    assert float(units) == float(f"{sum(300 * n * 2 * n**3 for n in range(2, 8)):.2e}")


def test_cost_estimate_counts_table_rows(tmp_path):
    """A Q histogram's rows outweigh its samples at r = 3: the memory
    figure grows by about 530 bytes per bin (a run at 2^16 bins peaks
    33 MiB above one at 100), and a running distance by about 530 per
    sample-count prefix.  The line keeps its format."""
    def megabytes(name, body):
        line = cost_estimate(load_config(write_cfg(tmp_path, name, body)))
        return float(re.fullmatch(r"estimate: ~\S+ contraction units \(~\S+ s nominal\), "
                                  r"~(\S+) MB peak arrays", line).group(1))
    few, many = (megabytes("q-histogram", {"r": 3, "params": {"bins": bins}})
                 for bins in (100, 2**16))
    assert few < 0.1 and 30 < many < 40
    assert megabytes("avg-state-convergence", {"r": 20000, "params": {"n": 3}}) > 10


# (experiment, params) of configs whose grid is empty
EMPTY_GRIDS = [
    ("distance-vs-chi", {"chis": []}),
    ("chi-independence", {"chis": []}),
    ("q-vs-chi", {"chis": []}),
    ("q-stddev", {"chis": []}),
    ("moments-vs-chi", {"chis": []}),
    ("moments-vs-chi", {"ms": []}),
    ("min-eig-vs-chi", {"chis": []}),
    ("linear-chi-scan", {"ns": []}),
    ("purity-error", {"ns": []}),
    ("concentration-scan", {"ns": []}),
    ("bound-comparison", {"bath_sizes": []}),
    ("purity-scaling", {"r_values": []}),
    ("twirl-compare", {"r_values": []}),
    ("subsystem-convergence", {"max_length": 0}),
]


@pytest.mark.parametrize("name,params", EMPTY_GRIDS)
def test_empty_grid_is_a_config_error(tmp_path, monkeypatch, capsys, name, params):
    """An empty grid exits 2 from validate and from run, before any draw,
    and the run leaves an error manifest and no table."""
    draws = []
    monkeypatch.setattr(ensembles, "_draw_stack", lambda *a: draws.append(a))
    key = next(iter(params))
    cfg = write_cfg(tmp_path, name, {"r": 5, "params": params})
    assert main(["validate", str(cfg)]) == 2
    assert key in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 2
    manifest = read_manifest(out_dir)
    assert manifest["status"] == "error" and key in manifest["error"]
    assert draws == []
    assert [p.name for p in out_dir.iterdir()] == ["manifest.json"]


def test_min_eig_reference_computed_once_per_run(tmp_path, monkeypatch):
    """One exact evaluation serves every bond dimension of the run, and
    the table carries its value bitwise."""
    calls = []
    exact = dense.cue_min_eigenvalue

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(dense, "cue_min_eigenvalue", counted)
    cfg = write_cfg(tmp_path, "min-eig-vs-chi",
                    {"r": 3, "params": {"n": 5, "d_a": 4, "chis": [2, 4, 8, 16]}})
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    assert calls == [(4, 8)]
    rows = (out_dir / "min_eig_vs_chi.csv").read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(float(row.split(",")[3]) == exact(4, 8) for row in rows)


def test_min_eig_reference_not_computed_for_one_sample(tmp_path, monkeypatch):
    """A run the plan rejects never reaches the exact reference."""
    calls = []
    monkeypatch.setattr(dense, "cue_min_eigenvalue", lambda *a: calls.append(a))
    cfg = write_cfg(tmp_path, "min-eig-vs-chi", {"r": 1})
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert calls == []


def test_cost_estimate_counts_monte_carlo_twirl(tmp_path):
    """twirl-compare plans no ensemble; its estimate is the Kronecker
    accumulation, r * dim^(4 n_copies) units per r value."""
    cfg = load_config(write_cfg(tmp_path, "twirl-compare"))
    units = re.search(r"~(\S+) contraction units", cost_estimate(cfg)).group(1)
    assert float(units) == float(f"{(200 + 800 + 3200) * 2**8:.2e}")
    assert float(units) > 0


def test_cost_estimate_counts_ring_sweeps_and_gram_blocks(tmp_path):
    """A ring sweep carries the chi^2 boundary axis, so the pbc estimate
    is chi^2 times the obc one; the memory of a pairwise plan counts its
    Gram tile arrays and the partial states of its two chain ends on top
    of the samples."""
    units, mb = {}, {}
    for boundary in ("obc", "pbc"):
        cfg = load_config(write_cfg(tmp_path, "purity-scaling", {"params": {
            "n": 8, "chi": 4, "r_values": [200], "boundary": boundary}}))
        found = re.search(r"~(\S+) contraction units .* ~(\S+) MB", cost_estimate(cfg))
        units[boundary], mb[boundary] = float(found.group(1)), float(found.group(2))
    obc = (200 + 200 * 199 // 2) * 8 * 2 * 4**3
    assert units["obc"] == float(f"{obc:.2e}")
    assert units["pbc"] == float(f"{4**2 * obc:.2e}")
    samples = 16 * 200 * 8 * 2 * 4**2 / 2**20
    # one obc tile: side x side pairs x D chi^2 elements
    side = ensembles._tile_side(2 * 4**2)
    assert 1 < side < 200
    # each end of K sites: D^K x chi numbers per sample on an open chain
    ends = 16 * 200 * sum(2**k for k in mps._end_sites(8, 2, 4, "obc")) * 4 / 2**20
    assert mb["obc"] >= samples + ends + 4 * 16 * side**2 * 2 * 4**2 / 2**20 - 0.01
    assert mb["pbc"] > mb["obc"]
