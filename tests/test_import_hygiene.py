"""What importing the job runtime loads (checked in a fresh interpreter).

Six call sites import ``repro.analysis.comm`` inside the function that
needs it so that a plain run never pays for the analyzer; the package's
``__init__`` must not undo that for whoever imports a sibling module.
"""

import os
import subprocess
import sys

import repro

PROBE = """
import sys
import repro.cluster
loaded = [name for name in ("interp", "comm", "commgraph", "lint")
          if "repro.analysis." + name in sys.modules]
assert not loaded, loaded
assert "repro.analysis.sanitizers" in sys.modules  # cluster.job needs it

import repro.analysis
from repro.analysis import CommGraph, SanitizerConfig, analyze_kernel, lint_source
assert "repro.analysis.interp" in sys.modules
assert sorted(repro.analysis.__all__) == sorted(repro.analysis._SUBMODULE_OF)
for name in repro.analysis.__all__:
    getattr(repro.analysis, name)
try:
    repro.analysis.no_such_name
except AttributeError as error:
    assert "no_such_name" in str(error)
else:
    raise AssertionError("unknown name resolved")
"""


def test_importing_the_job_runtime_does_not_load_the_analyzer():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
