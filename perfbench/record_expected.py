"""Re-record ``perfbench/expected.json``: the simulated outputs of the
default seed that every benchmark run on that seed is checked against.

    python3 -m perfbench.record_expected     # from the repo root, src on PYTHONPATH

Only for a change that is meant to alter the simulation's outputs.
"""

from __future__ import annotations

import json
import os

from perfbench import policy_site, telemetry_sweep
from perfbench.common import DEFAULT_SEED

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def main() -> None:
    episode = policy_site.run_episode(DEFAULT_SEED, 0)
    sweep = telemetry_sweep.sweep(DEFAULT_SEED, 1, 1)
    record = {
        "seed": DEFAULT_SEED,
        "policy_site": policy_site.expected_record(episode),
        "telemetry_sweep": telemetry_sweep.expected_record(sweep),
    }
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
