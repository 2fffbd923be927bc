"""Shape of the ladder trajectory, ``benchmarks/BENCH_ladder.json``.

The file records, per measured tree, the median and quartiles of every
end-to-end ladder metric on every workload, over repeated runs of the
contract command in ``BENCHMARK.json``, together with the commit and the
host it was measured on.  Entries are appended in order, oldest first.
Only the shape is checked here: the numbers are host measurements.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "BENCH_ladder.json"
HOST_FACTS = {"cpu", "logical_cpus", "os", "python"}
ENTRY_FIELDS = {"label", "commit", "parent", "host", "seed", "runs", "results"}


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_trajectory_covers_every_workload_and_metric():
    doc = json.loads(TRAJECTORY.read_text())
    contract = _contract()
    workloads = [w["name"] for w in contract["workloads"]]
    metrics = [m["name"] for m in contract["end_to_end"]]
    assert doc["schema"] == 1
    assert doc["workloads"] == workloads and doc["metrics"] == metrics
    assert "{workload}" in doc["command"] and "{seed}" in doc["command"]
    entries = doc["entries"]
    assert len(entries) >= 2
    for entry in entries:
        assert set(entry) >= ENTRY_FIELDS, entry.keys()
        assert set(entry["host"]) >= HOST_FACTS
        assert entry["runs"] >= 1
        assert list(entry["results"]) == workloads
        for workload, by_metric in entry["results"].items():
            assert list(by_metric) == metrics, workload
            for metric, cell in by_metric.items():
                assert cell["n"] == entry["runs"], (workload, metric)
                assert 0 < cell["q1"] <= cell["median"] <= cell["q3"], (
                    workload, metric, cell)


def test_entries_form_a_chain_of_commits():
    """Each entry after the first was measured on a child of the one
    before it; only the newest entry may lack its own commit id (it is
    measured before it is committed)."""
    entries = json.loads(TRAJECTORY.read_text())["entries"]
    for older, newer in zip(entries, entries[1:]):
        assert older["commit"], older["label"]
        assert newer["parent"] == older["commit"], newer["label"]
