"""Library configuration: the knobs the paper's experiments turn."""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.conn import MECHANISMS

#: valid connection-manager names: the rows of the mechanism table
CONNECTION_MODES = tuple(MECHANISMS)
#: valid completion styles
COMPLETION_MODES = ("polling", "spinwait")


@dataclass(frozen=True)
class MpiConfig:
    """Per-job MPI library configuration.

    Attributes
    ----------
    connection:
        ``"ondemand"`` — VIs created and peer-connected on first use
        (the paper's mechanism); ``"static-p2p"`` — fully connected in
        ``MPI_Init`` with peer-to-peer setup; ``"static-cs"`` — fully
        connected with the serialized client/server setup;
        ``"predicted"`` — ``MPI_Init`` connects exactly the
        ``predicted_peers`` graph (see :mod:`repro.mpi.conn`).
    completion:
        ``"polling"`` — spin forever; ``"spinwait"`` — spin ``spincount``
        polls then block (cLAN's interrupt wait + wakeup penalty).
        On Berkeley VIA wait *is* polling, so spinwait silently behaves
        as polling there (paper §5.3).
    eager_threshold:
        Messages with payload ≤ this go eager; larger go rendezvous.
        MVICH default 5000 bytes (the Figure 3 bandwidth jump).
    spincount:
        Polls before blocking in spinwait mode (MVICH default 100).
    rndv_window:
        Max outstanding rendezvous RTS per destination channel.
    data_credits:
        Eager-flow-control credits per channel direction (equals the
        data portion of the pre-posted descriptors).
    control_reserve:
        Extra pre-posted descriptors reserved for credit-bypassing
        control messages (explicit credit updates).
    """

    connection: str = "ondemand"
    #: per-rank connection peers for ``connection="predicted"``: rank ``r``
    #: pre-establishes VIs to ``predicted_peers[r]`` during ``MPI_Init`` —
    #: the statically analyzed communication graph
    #: (:func:`repro.analysis.comm.predicted_peers_for`).  The graph must
    #: be symmetric (the VIA peer-to-peer handshake needs both endpoints
    #: to request), name only ranks in ``range(len(predicted_peers))``
    #: and never the rank itself — rejected here, and ``run_job`` rejects
    #: a graph whose length is not the job's size.  An unpredicted peer
    #: still connects lazily on first use, on-demand style, so a sound
    #: over-approximation is enough.
    predicted_peers: tuple[tuple[int, ...], ...] | None = None
    completion: str = "polling"
    eager_threshold: int = 5000
    spincount: int = 100
    rndv_window: int = 4
    data_credits: int = 15
    control_reserve: int = 3
    send_pool_count: int = 6
    #: the paper's §6 future-work extension: start each VI with only
    #: ``initial_credits`` pre-posted buffers and grow in ``growth_chunk``
    #: steps (up to ``data_credits``) when the sender signals queued
    #: demand — trading a little first-burst latency for much less
    #: pinned memory on lightly used connections
    dynamic_buffers: bool = False
    initial_credits: int = 4
    growth_chunk: int = 8
    #: extension for the paper's scalability point 2 (hard NIC limits on
    #: VIs): with on-demand management, cap live VIs per process and
    #: evict the least-recently-used *quiescent* connection when a new
    #: one is needed.  None = unlimited (the paper's behaviour).
    vi_cache_limit: int | None = None
    #: connection-robustness knobs (the repro.chaos fault-injection
    #: layer): a peer-to-peer connect that has not established within
    #: ``connect_timeout_us`` is retried with exponential backoff
    #: (factor ``connect_backoff``, capped at ``connect_timeout_max_us``,
    #: plus up to ``connect_jitter`` relative random jitter to break
    #: retry synchronization) at most ``connect_retry_limit`` times
    #: before surfacing a typed ``ConnectionFailed``.  ``None`` disables
    #: timeouts entirely — the default, and required for bit-for-bit
    #: reproducibility of fault-free runs.  ``run_job`` enables a
    #: default timeout automatically when a fault plan is active.
    connect_timeout_us: float | None = None
    connect_retry_limit: int = 8
    connect_backoff: float = 2.0
    connect_timeout_max_us: float = 80_000.0
    connect_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.connection not in CONNECTION_MODES:
            raise ValueError(
                f"connection must be one of {CONNECTION_MODES}, got {self.connection!r}"
            )
        if self.connection == "predicted":
            if self.predicted_peers is None:
                raise ValueError(
                    "connection='predicted' needs predicted_peers (use "
                    "repro.analysis.comm.predicted_peers_for)"
                )
            graph = self.predicted_peers
            edges = {(rank, peer) for rank, peers in enumerate(graph)
                     for peer in peers}
            for rank, peers in enumerate(graph):
                if len(set(peers)) != len(peers):
                    raise ValueError(
                        f"predicted_peers[{rank}] lists a peer twice")
                for peer in peers:
                    if not isinstance(peer, int) or not 0 <= peer < len(graph):
                        raise ValueError(
                            f"predicted_peers[{rank}] holds {peer!r}; peers "
                            f"must be rank numbers in range({len(graph)})"
                        )
                    if peer == rank:
                        raise ValueError(
                            f"predicted_peers[{rank}] names rank {rank} "
                            "itself")
                    if (peer, rank) not in edges:
                        raise ValueError(
                            f"predicted_peers is asymmetric: rank {rank} "
                            f"lists {peer} but rank {peer} does not list "
                            f"{rank} (the peer-to-peer handshake needs both)"
                        )
        elif self.predicted_peers is not None:
            raise ValueError(
                "predicted_peers only applies to connection='predicted'"
            )
        if self.completion not in COMPLETION_MODES:
            raise ValueError(
                f"completion must be one of {COMPLETION_MODES}, got {self.completion!r}"
            )
        if self.eager_threshold < 0 or self.spincount < 1:
            raise ValueError("eager_threshold must be >= 0 and spincount >= 1")
        if min(self.data_credits, self.control_reserve, self.rndv_window,
               self.send_pool_count) < 1:
            raise ValueError("credit/window parameters must be >= 1")
        if self.dynamic_buffers:
            if not (1 <= self.initial_credits <= self.data_credits):
                raise ValueError(
                    "initial_credits must be in [1, data_credits]")
            if self.growth_chunk < 1:
                raise ValueError("growth_chunk must be >= 1")
        if self.connect_timeout_us is not None and self.connect_timeout_us <= 0:
            raise ValueError("connect_timeout_us must be positive (or None)")
        if self.connect_retry_limit < 1 or self.connect_backoff < 1.0:
            raise ValueError(
                "connect_retry_limit must be >= 1 and connect_backoff >= 1")
        if self.connect_jitter < 0 or self.connect_timeout_max_us <= 0:
            raise ValueError(
                "connect_jitter must be >= 0 and connect_timeout_max_us > 0")
        if self.vi_cache_limit is not None:
            if self.vi_cache_limit < 1:
                raise ValueError("vi_cache_limit must be >= 1")
            if self.connection != "ondemand":
                raise ValueError(
                    "the connection cache needs on-demand management")
            if self.dynamic_buffers:
                raise ValueError(
                    "vi_cache_limit and dynamic_buffers cannot combine: "
                    "quiescence needs a known full credit level")

    @property
    def growth_events_max(self) -> int:
        """Most window-growth grants a channel can ever send."""
        if not self.dynamic_buffers:
            return 0
        return -(-(self.data_credits - self.initial_credits)
                 // self.growth_chunk)

    @property
    def prepost_count(self) -> int:
        """Receive descriptors pre-posted per VI at creation.

        Dynamic mode reserves extra descriptors for the peer's
        growth-grant messages (explicit, credit-bypassing) on top of the
        usual control reserve."""
        if self.dynamic_buffers:
            return (self.initial_credits + self.control_reserve
                    + self.growth_events_max)
        return self.data_credits + self.control_reserve
