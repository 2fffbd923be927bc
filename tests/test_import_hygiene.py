"""What importing each layer loads (checked in a fresh interpreter).

A layer loads only itself and the layers below it.  The bottom two,
``repro.sim`` and ``repro.fabric``, run without numpy; numpy enters at
``repro.memory``.  The package root and ``repro.analysis`` resolve their
names on first access (PEP 562), so ``import repro.sim`` pays for the
engine alone.  The job runtime imports ``repro.analysis.sanitizers``
but never the analyzer behind ``repro.analysis.comm``: three call sites
import that inside the function that needs it, so a plain run never
pays for it.  The service's worker path (``repro.service.jobs`` and the
bench runner behind it) loads neither the analyzer nor the bench
commands' flag vocabulary.
"""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC)

#: module -> (the ``repro`` subpackages importing it loads, numpy loaded)
LAYERS = {
    "repro": (set(), False),
    "repro.sim": ({"sim"}, False),
    "repro.fabric": ({"sim", "fabric"}, False),
    "repro.memory": ({"memory"}, True),
    "repro.via": ({"sim", "fabric", "memory", "via"}, True),
    "repro.mpi": ({"sim", "fabric", "memory", "via", "mpi"}, True),
    "repro.telemetry": ({"sim", "telemetry"}, False),
    "repro.cluster": ({"sim", "fabric", "memory", "via", "mpi", "telemetry",
                       "chaos", "metrics", "workloads", "analysis", "cluster"},
                      True),
}

LOADED = """
import json, sys
import {module}
print(json.dumps({{
    "packages": sorted({{name.split(".")[1] for name in sys.modules
                        if name.startswith("repro.")}}),
    "numpy": "numpy" in sys.modules,
}}))
"""

JOB_RUNTIME = """
import sys
import repro.cluster
loaded = [name for name in ("interp", "comm", "commgraph", "lint")
          if "repro.analysis." + name in sys.modules]
assert not loaded, loaded
assert "repro.analysis.sanitizers" in sys.modules  # cluster.job needs it
import repro.service.jobs
loaded = [name for name in ("analysis.comm", "bench.flags")
          if "repro." + name in sys.modules]
assert not loaded, loaded

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

#: each public name of the package root -> the module that defines it
ROOT_API = {
    "ClusterSpec": "repro.cluster",
    "JobResult": "repro.cluster",
    "run_job": "repro.cluster",
    "MpiConfig": "repro.mpi",
    "CLAN": "repro.via",
    "BERKELEY": "repro.via",
    "ViaProfile": "repro.via",
    "profile_by_name": "repro.via",
}


def run_fresh(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_a_layer_loads_only_what_lies_below_it(module):
    packages, numpy = LAYERS[module]
    seen = json.loads(run_fresh("-c", LOADED.format(module=module)).splitlines()[-1])
    assert set(seen["packages"]) == packages
    assert seen["numpy"] is numpy


def test_the_bottom_two_layers_run_with_numpy_out_of_reach():
    """CI's bare-venv step: ``-S`` leaves site-packages off the path, so
    numpy cannot be imported, and the script checks that it cannot."""
    out = run_fresh("-S", os.path.join("tests", "no_numpy_layers.py"))
    assert out.splitlines()[-1] == "ok: repro.sim and repro.fabric ran without numpy"


def test_importing_the_job_runtime_does_not_load_the_analyzer():
    run_fresh("-c", JOB_RUNTIME)


def test_the_root_exports_the_defining_modules_objects():
    assert sorted(repro.__all__) == sorted([*ROOT_API, "__version__"])
    for name, module in ROOT_API.items():
        assert getattr(repro, name) is getattr(import_module(module), name)
    assert set(repro.__all__) <= set(dir(repro))
    namespace: dict = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_quickstart_runs():
    out = run_fresh(os.path.join("examples", "quickstart.py"))
    assert "--- ondemand ---" in out
