"""Unit tests for the static communication-graph analyzer
(:mod:`repro.analysis.comm`): every REPROC diagnostic fires on a known-bad
synthetic kernel, the NPB kernels analyze clean, and the predicted graph
has the structural properties the runtime relies on."""

import hashlib
import json
import pathlib
import textwrap

import pytest

from repro.analysis import (
    analyze_kernel,
    analyze_source,
    predicted_peers_for,
    predicted_vi_demand,
)
from repro.analysis import comm
from repro.analysis.__main__ import main as analysis_main
from repro.workloads.registry import KERNEL_DEFS

from tests.counting import count_calls

NPB = ("cg", "mg", "is", "ep", "sp", "ft", "lu")

#: sha256 of the canonical CommGraph JSON (diagnostics included) of every
#: registered source kernel x np in DIGEST_NPROCS, generated before the
#: matcher got its per-destination index.  Regenerate (and review) with
#: ``PYTHONPATH=src python -m tests.test_comm_analysis``.
DIGESTS_PATH = pathlib.Path(__file__).parent / "golden" / "commgraph_digests.json"
DIGEST_NPROCS = (2, 4, 8, 16)


def commgraph_digest(kernel, nprocs):
    """Digest of one cold analysis; a kernel that rejects the rank count
    digests its error, so that stays pinned too."""
    try:
        doc = analyze_kernel(kernel, nprocs).as_dict()
    except Exception as exc:  # noqa: BLE001 - the error is the oracle
        doc = {"error": f"{type(exc).__name__}: {exc}"}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def commgraph_digests():
    return {
        f"{kernel}/{nprocs}": commgraph_digest(kernel, nprocs)
        for kernel, defn in sorted(KERNEL_DEFS.items())
        if defn.trace is None
        for nprocs in DIGEST_NPROCS
    }


def analyze(code, nprocs, factory="make"):
    """Analyze a dedented synthetic rank program (wrapped in a factory,
    matching the registered-kernel convention: factory() -> program)."""
    source = "def make():\n" + textwrap.indent(
        textwrap.dedent(code).strip() + "\nreturn kernel\n", "    ")
    return analyze_source(source, factory, nprocs)


class TestDiagnostics:
    def test_clean_ring_has_no_diagnostics(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                right = (mpi.rank + 1) % mpi.size
                left = (mpi.rank - 1) % mpi.size
                buf = np.empty(4)
                yield from mpi.sendrecv(np.zeros(4), right, buf, left)
        """, nprocs=4)
        assert graph.ok
        assert graph.max_degree == 2
        assert graph.peers[0] == (1, 3)

    def test_reproc01_unmatched_send(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                if mpi.rank == 0:
                    yield from mpi.send(np.zeros(4), 1)
                yield from mpi.barrier()
        """, nprocs=2)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC01" in codes

    def test_reproc02_deadlock_cycle(self):
        # everyone blocking-receives from the left before sending right:
        # the classic head-to-head ring deadlock
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                left = (mpi.rank - 1) % mpi.size
                right = (mpi.rank + 1) % mpi.size
                buf = np.empty(4)
                yield from mpi.recv(buf, left)
                yield from mpi.send(np.zeros(4), right)
        """, nprocs=4)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC02" in codes

    def test_reproc03_rank_out_of_range(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                if mpi.rank == 0:
                    yield from mpi.send(np.zeros(4), mpi.size)
                yield from mpi.barrier()
        """, nprocs=4)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC03" in codes

    @pytest.mark.parametrize("root", ["mpi.size + 3", "-1"])
    @pytest.mark.parametrize("call", [
        "mpi.gather(x, None, root={})", "mpi.bcast(x, root={})",
        "mpi.reduce(x, None, root={})", "mpi.scatter(x, None, root={})"])
    def test_reproc03_collective_root_out_of_range(self, call, root):
        # a root outside [0, nprocs) is REPROC03 on every rank, as for a
        # point-to-point peer: no edge, no peer, nothing indexed by it
        graph = analyze(f"""
            import numpy as np
            def kernel(mpi):
                x = np.zeros(4)
                yield from {call.format(root)}
        """, nprocs=4)
        kind, bad = call.split("(")[0][4:], 7 if root != "-1" else -1
        r3 = [(d.rank, d.message) for d in graph.diagnostics
              if d.code == "REPROC03"]
        assert r3 == [(rank, f"{kind} root is rank {bad}, out of range "
                             "for nprocs=4") for rank in range(4)]
        assert graph.peers == ((),) * 4 and graph.edges == ()

    def test_reproc04_dynamic_destination_widens(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi, peers=None):
                dest = hash(str(mpi.rank)) % mpi.size
                yield from mpi.send(np.zeros(4), dest)
                buf = np.empty(4)
                yield from mpi.recv(buf, mpi.ANY_SOURCE)
        """, nprocs=4)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC04" in codes
        # soundness: widened ranks get the full mesh
        assert graph.widened_ranks
        for rank in graph.widened_ranks:
            assert len(graph.peers[rank]) == graph.nprocs - 1


class TestNpbKernels:
    @pytest.mark.parametrize("kernel", NPB)
    def test_analyzes_clean_at_np4(self, kernel):
        graph = analyze_kernel(kernel, 4)
        assert graph.ok, [d.format() for d in graph.diagnostics]
        assert 0 < graph.max_degree <= 3

    def test_registry_covers_cluster_kernels(self):
        from repro.cluster.workload import schedulable_kernels

        for name in schedulable_kernels():
            assert analyze_kernel(name, 4).nprocs == 4

    def test_cg_degree_well_below_full_mesh_at_np16(self):
        # the paper's Table-2 story: CG needs ~4-5 VIs, not 15
        graph = analyze_kernel("cg", 16)
        assert graph.ok
        assert graph.max_degree <= 5
        assert graph.avg_degree < 6

    def test_ep_is_collective_only(self):
        graph = analyze_kernel("ep", 8)
        assert graph.ok
        assert graph.collectives  # allreduce tree edges only
        assert graph.max_degree <= 3  # log2(8)


class TestGraphProperties:
    def test_peers_are_symmetric_and_self_free(self):
        for kernel in ("cg", "mg", "lu", "ring", "alltoall"):
            graph = analyze_kernel(kernel, 4)
            for rank, peers in enumerate(graph.peers):
                assert rank not in peers
                for p in peers:
                    assert rank in graph.peers[p], (kernel, rank, p)

    def test_predicted_helpers_agree_with_graph(self):
        graph = analyze_kernel("mg", 4)
        assert predicted_peers_for("mg", 4) == graph.peers
        assert predicted_vi_demand("mg", 4) == graph.max_degree

    def test_as_dict_round_trips_through_json(self):
        graph = analyze_kernel("pingpong", 2)
        doc = json.loads(graph.to_json())
        assert doc["version"] == 1
        assert doc["kernel"] == "pingpong"
        assert doc["ok"] is True
        assert doc["peers"] == [[1], [0]]

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            analyze_kernel("nope", 4)
        with pytest.raises(ValueError):
            analyze_kernel("cg", 0)


class TestCommCli:
    def test_comm_subcommand_clean_kernel_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        rc = analysis_main(["comm", "pingpong", "--nprocs", "2",
                            "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["max_degree"] == 1
        assert "pingpong" in capsys.readouterr().out

    def test_comm_subcommand_diagnostics_exit_one(self, capsys):
        # samrai draws peers from an rng: genuinely unresolvable (REPROC04)
        rc = analysis_main(["comm", "samrai", "--nprocs", "4", "-q"])
        assert rc == 1
        assert "REPROC04" in capsys.readouterr().out


class TestMatcherIndex:
    """The matching simulation behind REPROC01/02 keeps its in-flight
    sends per destination; what it decides is pinned by digest."""

    def test_commgraph_digests_match_golden(self):
        recorded = json.loads(DIGESTS_PATH.read_text())
        fresh = commgraph_digests()
        changed = sorted(k for k in recorded.keys() | fresh.keys()
                         if recorded.get(k) != fresh.get(k))
        assert not changed, f"CommGraph changed for {changed}"
        assert len(fresh) >= 80

    def test_receive_examines_only_keys_in_flight_to_its_rank(self, monkeypatch):
        # every receive takes ANY_TAG, so every one chooses by a scan
        examined = count_calls(monkeypatch, comm, "_matchable")
        original = comm._take_send
        receives = [0]
        widest = [0]

        def take_send(keys, first, src, tag):
            in_flight, before = len(keys), examined[0]
            taken = original(keys, first, src, tag)
            assert examined[0] - before <= in_flight
            receives[0] += 1
            widest[0] = max(widest[0], in_flight)
            return taken

        monkeypatch.setattr(comm, "_take_send", take_send)
        graph = analyze_source(ANY_TAG_RING, "make", 16)
        assert graph.ok and graph.params["matching_checked"]
        assert receives[0] > 1000
        # a key leaves the index with its last message: what is in
        # flight to one rank stays a handful, however long the run
        assert widest[0] <= 16

    def test_fully_specified_receives_take_their_key_without_a_scan(
            self, monkeypatch):
        scans = count_calls(monkeypatch, comm, "_take_send")
        examined = count_calls(monkeypatch, comm, "_matchable")
        graph = analyze_kernel("cg", 16)
        assert graph.ok and graph.params["matching_checked"]
        classes = comm._class_streams(KERNEL_DEFS["cg"], 16, "S")
        receives = sum(op == "recv" for rank, stream in enumerate(
                           comm._rank_streams(classes, 16).ranks)
                       for segment in stream
                       for op, _peer, _nbytes in comm._ops(segment, rank, 16))
        assert receives > 1000
        assert scans[0] == examined[0] == 0

    def test_choice_between_keys_is_first_send_order(self):
        # rank 2 sent tag 7 first, then rank 1 sent tag 7, then an
        # unknown-tag send from rank 1: all to the receiving rank
        first = {(2, 7): 0, (1, 7): 1, (1, None): 2}
        keys = {(1, 7): 1, (2, 7): 2}
        assert comm._take_send(keys, first, None, 7)  # any source
        assert keys == {(1, 7): 1, (2, 7): 1}
        assert comm._take_send(keys, first, 1, 7)  # exact key, now spent
        assert keys == {(2, 7): 1}
        assert not comm._take_send(keys, first, 1, 7)
        # an unknown-tag send from the named source can match too, so
        # the exact key is not taken blindly: the earlier send wins
        keys = {(1, None): 1, (1, 7): 1}
        assert comm._take_send(keys, first, 1, 7)
        assert keys == {(1, None): 1}
        # ANY_TAG never consumes a collective's internal (tuple) tag
        keys = {(1, ("bcast", 3)): 1}
        first[1, ("bcast", 3)] = 3
        assert not comm._take_send(keys, first, 1, None)
        assert comm._take_send(keys, first, 1, ("bcast", 3))
        assert not keys


#: a ring in which every receive takes ANY_TAG: 80 rounds, three tags
ANY_TAG_RING = """
from repro.mpi.constants import ANY_TAG

def make():
    def kernel(mpi):
        right = (mpi.rank + 1) % mpi.size
        left = (mpi.rank - 1) % mpi.size
        for step in range(80):
            yield from mpi.send(None, right, tag=step % 3)
            yield from mpi.recv(None, source=left, tag=ANY_TAG)
    return kernel
"""


def test_a_re_registered_source_kernel_is_analyzed_afresh():
    """The memoised graph belongs to the kernel's definition, not its
    name: re-registering a name must not serve the old graph."""
    from repro.workloads import registry

    name = "reregistered-pl"
    chain = ((1,), (0, 2), (1, 3), (2,))
    star = ((1, 2, 3), (0,), (0,), (0,))
    try:
        registry.register_kernel(registry.KernelDef(
            name=name, module="repro.apps.skeletons", factory="pipeline",
            kwargs=(("rounds", 1),)))
        assert predicted_peers_for(name, 4) == chain
        registry.register_kernel(registry.KernelDef(
            name=name, module="repro.apps.skeletons",
            factory="master_worker", kwargs=(("rounds", 1),)),
            replace_existing=True)
        assert analyze_kernel(name, 4).peers == star
        assert predicted_peers_for(name, 4) == star
        assert predicted_vi_demand(name, 4) == 3
    finally:
        registry.KERNEL_DEFS.pop(name, None)


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(commgraph_digests(), indent=1) + "\n")
