"""`mlt` exports the documented trust API and nothing else.

The README's Library section and perfbench's query workload read these names
through `mlt`; everything else is imported from its own module.  Importing
the package loads the trust math only, not the simulator, the sweeps or the
worker pool.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import mlt

PUBLIC = {
    "AccumulatedReport",
    "AggregationParams",
    "InstantaneousReport",
    "NoEvidenceError",
    "Thresholds",
    "TrustBreakdown",
    "TrustLevel",
    "aggregate",
    "classify",
}


def test_mlt_exports_only_the_documented_names():
    # submodules become package attributes once anything imports them, so they are left out
    names = {name for name, value in vars(mlt).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert names == PUBLIC
    assert isinstance(mlt.__version__, str)


def test_importing_mlt_loads_only_the_trust_math():
    package_root = str(Path(mlt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    probe = "import sys, mlt; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert {"mlt", "mlt.trust", "mlt.session", "mlt.evaluation"} <= loaded
    unwanted = {"mlt.agents", "mlt.simulator", "mlt.experiments", "mlt.config", "multiprocessing"}
    assert sorted(loaded & unwanted) == []
