"""The reference engine stays out of production.

``repro.serving.oracle`` exists for tests to compare the fleet engine
against.  If a production module starts importing it, a second engine
path can creep back in behind the one entry point.  This runs the
whole production pipeline — import the package, simulate, account SLOs,
check invariants — in a fresh interpreter and asserts the oracle module
was never loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import sys

import repro.serving
from repro.serving import (
    PoolSpec, WorkloadMix, affine_batch_latency, check_invariants,
    generate_requests, simulate_fleet, slo_report,
)

mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 1.0})
requests = generate_requests(mix, arrival_rate=2.0, duration_s=30.0, seed=1)
pools = [
    PoolSpec(
        name="p0", machine="dgx-a100-80g", servers=2,
        latency_fns={"sd": affine_batch_latency(1.0)},
    ),
]
report = simulate_fleet(requests, pools)
slo_report(report, 5.0)
assert check_invariants(requests, report).ok
print("repro.serving.oracle" in sys.modules)
"""


def test_production_pipeline_never_loads_the_oracle():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=True,
        timeout=300,
    )
    assert result.stdout.split() == ["False"]
