"""Simulated network links.

A :class:`Link` connects two nodes with a propagation latency, a bandwidth
and a loss probability, all of which can fluctuate at run time — the
"fluctuation of available resources" the paper's adaptation loop reacts to.
"""

from __future__ import annotations

from repro.errors import LinkDownError


class Link:
    """A bidirectional point-to-point link.

    Attributes:
        latency: propagation delay in simulated time units.
        bandwidth: bytes per simulated time unit.
        loss: per-traversal drop probability in [0, 1].

    ``__slots__``: links scale with topology size, so they keep no
    per-instance dict.

    ``network`` is the :class:`~repro.netsim.network.Network` the link is
    registered with (set by ``Network.add_link``): a latency change tells
    it that its routes may be stale.
    """

    __slots__ = (
        "a", "b", "latency", "bandwidth", "loss", "up", "network",
        "transferred_bytes", "transferred_messages", "dropped_messages",
    )

    def __init__(
        self,
        a: str,
        b: str,
        latency: float = 0.001,
        bandwidth: float = 1_000_000.0,
        loss: float = 0.0,
    ) -> None:
        if latency < 0:
            raise LinkDownError(f"link latency must be >= 0, got {latency}")
        if bandwidth <= 0:
            raise LinkDownError(f"link bandwidth must be > 0, got {bandwidth}")
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.loss = min(max(loss, 0.0), 1.0)
        self.up = True
        self.network = None
        self.transferred_bytes = 0
        self.transferred_messages = 0
        self.dropped_messages = 0

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) endpoint pair used as the map key."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def connects(self, node_name: str) -> bool:
        return node_name in (self.a, self.b)

    def other(self, node_name: str) -> str:
        """The peer of ``node_name`` on this link."""
        if node_name == self.a:
            return self.b
        if node_name == self.b:
            return self.a
        raise LinkDownError(f"link {self.key} does not connect {node_name!r}")

    def transfer_time(self, size: int) -> float:
        """Total time for ``size`` bytes: propagation plus transmission."""
        if not self.up:
            raise LinkDownError(f"link {self.key} is down")
        return self.latency + size / self.bandwidth

    def set_quality(
        self,
        latency: float | None = None,
        bandwidth: float | None = None,
        loss: float | None = None,
    ) -> None:
        """Adjust link characteristics; used by fluctuation workloads."""
        if latency is not None:
            if latency < 0:
                raise LinkDownError(f"link latency must be >= 0, got {latency}")
            if latency != self.latency and self.network is not None:
                self.network.invalidate_routes()
            self.latency = latency
        if bandwidth is not None:
            if bandwidth <= 0:
                raise LinkDownError(f"link bandwidth must be > 0, got {bandwidth}")
            self.bandwidth = bandwidth
        if loss is not None:
            self.loss = min(max(loss, 0.0), 1.0)

    def fail(self) -> None:
        self.up = False

    def restore(self) -> None:
        self.up = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self.up else "DOWN"
        return (
            f"Link({self.a}<->{self.b}, {state}, lat={self.latency}, "
            f"bw={self.bandwidth}, loss={self.loss})"
        )
