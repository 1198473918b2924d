"""Record the reference tables of every workload at the pinned seed.

    python3 perfbench/record_reference.py

Runs each workload once, the way the benchmark does, and writes its
tables to reference/<workload>.json.  Run it only at a commit whose
outputs are known good; the benchmark compares every later run at the
pinned seed with these files.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        out = run.OUT_DIR / name
        shutil.rmtree(out, ignore_errors=True)
        config_path = run.OUT_DIR / f"{name}.json"
        config_path.write_text(json.dumps(
            workloads.config(name, workloads.PINNED_SEED, out)))
        report, error = run.spawn(config_path, "run")
        if report is None:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 1
        tables = workloads.read_tables(out)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        # one table row per line keeps the reference readable in a diff
        body = ",\n".join(
            f'"{t}": {{"columns": {json.dumps(v["columns"])}, "rows": [\n  '
            + ",\n  ".join(json.dumps(row) for row in v["rows"]) + "]}"
            for t, v in tables.items())
        path.write_text("{" + body + "}\n")
        print(f"wrote {path} ({report['wall_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
