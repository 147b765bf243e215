"""numpy loads on the first batched precompute, not with the package.

Listing the experiments, a warm rerun and a plan-server start never
simulate, so they must not pay numpy's import.  A simulation must still
take the numpy branch wherever numpy is installed.
"""

import os
import subprocess
import sys
from importlib.util import find_spec

import pytest

import repro
from repro.config import SimConfig
from repro.frontend import direction_batch
from repro.trace.walker import generate_trace
from repro.uarch.sim import FrontendSimulator


@pytest.mark.parametrize(
    "statement",
    [
        "from repro.experiments.__main__ import main\nassert main(['--list']) == 0",
        "import repro.service.server",
    ],
    ids=["list", "plan-server"],
)
def test_runs_that_never_simulate_leave_numpy_unimported(statement, tmp_path):
    probe = f"import sys\n{statement}\nprint('numpy' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == "False"


@pytest.mark.skipif(find_spec("numpy") is None, reason="numpy is not installed")
def test_simulation_takes_the_numpy_branch(tiny_workload, monkeypatch):
    calls = []
    batched = direction_batch._batched_outcomes

    def spy(*args):
        calls.append(len(args[1]))
        return batched(*args)

    monkeypatch.setattr(direction_batch, "_batched_outcomes", spy)
    trace = generate_trace(
        tiny_workload, tiny_workload.spec.make_input(3), max_instructions=20_000
    )
    FrontendSimulator(tiny_workload, config=SimConfig()).run(trace)
    assert direction_batch.HAVE_NUMPY
    assert trace.compiled_for(tiny_workload)._kinds_np is not None
    assert calls and calls[0] > 0
    assert "numpy" in sys.modules
