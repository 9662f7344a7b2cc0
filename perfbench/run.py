"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload policy_site --seed 1 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` runs the workload once plain
and once under per-layer spans and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when the outputs checked out, 1 when they did not, and 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("policy_site", "telemetry_sweep", "serving_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program under test at {ROOT}/src/repro", file=sys.stderr)
        return 2
    # Run as a script, sys.path[0] is this directory; import the
    # benchmark as a package from the root and the program from src/.
    sys.path[:1] = [ROOT, os.path.join(ROOT, "src")]
    # One BLAS thread: the workloads' CPU-time clock then measures the
    # one thread doing the work (the server process inherits this).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    import importlib

    from perfbench.common import environment

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)

    module = importlib.import_module(f"perfbench.{args.workload}")
    trace = bool(args.trace)
    outcome = module.run(args.seed, args.seconds, trace,
                         expected.get(args.workload, {}))
    params = environment(args.seed, args.workload, args.seconds, trace)
    params.update(outcome.params)

    if trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = {name: outcome.layers.get(name, 0.0) for name, _ in wanted}
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {name: outcome.metrics[name][0] for name, _ in wanted}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}

    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, unit in wanted:
        print(f"{name:<28} {values[name]:>16.6g} {unit}")
    print("params " + json.dumps(params, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
