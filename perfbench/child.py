"""One experiment process of the benchmark, started fresh for every run.

    python3 perfbench/child.py <config.json> setup|run|trace

Does what ``rmps run`` does, ``cli.load_config`` then ``cli.run``, and
prints one JSON line: the CLOCK_MONOTONIC time at which set-up finished
(the parent took the time before starting this process) and the speed
probe times of a burst right after it (speed.py).  For ``run`` and
``trace`` it adds the raw wall time of ``cli.run``, the probe times
sampled during it, the peak resident memory and the nominal seconds of
``cli.cost_estimate``.  ``trace`` also wraps the package's layers (see
tracer.py) and reports their spans.
"""

from __future__ import annotations

import json
import re
import resource
import sys
import time


def main() -> None:
    config_path, mode = sys.argv[1], sys.argv[2]
    from rmps import cli

    cfg = cli.load_config(config_path)
    problems = cli.validate_config(cfg)
    if problems:
        raise SystemExit(f"invalid config: {'; '.join(problems)}")
    report = {"ready": time.monotonic(), "rmps_file": cli.__file__}
    import speed

    report["burst_s"] = speed.burst()
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            cli.run(cfg)
            report["wall_raw_s"] = time.perf_counter() - t0
        report["probe_s"] = sampler.samples
        report["probe_spent_s"] = sampler.spent
        # ru_maxrss is in KiB on Linux
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        nominal = re.search(r"([0-9.eE+-]+) s nominal", cli.cost_estimate(cfg))
        report["nominal_s"] = float(nominal.group(1)) if nominal else 0.0
        if tracer is not None:
            report["trace"] = tracer.summary()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
