"""What a simulation process loads: no scipy on the run's import path,
and no module imported while a run is under way.

Each check runs in a fresh interpreter, so modules other tests loaded
do not hide an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import repro, repro.cli, repro.experiments.runner, repro.experiments.parallel
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import aggregate, run_experiment

scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
before = set(sys.modules)
run_experiment(
    ExperimentConfig(n_nodes=30, field_size=400.0, duration=4.0, n_pairs=2),
    max_packets_per_pair=2,
)
during = sorted(set(sys.modules) - before)
print(json.dumps({
    "scipy": scipy,
    "during": during,
    "aggregate": [
        aggregate([1.0, 2.0, 3.0, 4.0]),
        aggregate([0.25, 0.5, 0.9, float("nan")]),
        aggregate([7.0]),
    ],
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_run_import_path_loads_no_scipy(probe):
    assert probe["scipy"] == []


def test_run_imports_nothing(probe):
    """Everything a run needs is loaded with the program, so no import
    lands inside a run's setup or loop."""
    assert probe["during"] == []


def test_aggregate_values_unchanged(probe):
    """``aggregate`` imports ``scipy.stats`` on call and still gives
    the Student-t half-widths."""
    (m4, h4), (m3, h3), single = probe["aggregate"]
    assert (m4, h4) == pytest.approx((2.5, 2.0542602567605206), rel=1e-12)
    assert (m3, h3) == pytest.approx((0.55, 0.8144790165351518), rel=1e-12)
    assert single == [7.0, 0.0]
