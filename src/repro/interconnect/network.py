"""Message timing over a topology.

The network model charges each message a per-hop router/link latency plus a
serialisation delay derived from the configured link bandwidth (12 GB/s in
Table 2).  Contention is not modelled — consistent with the paper's
deliberately conservative, unoptimised memory system — so a message's
latency depends only on its route and size: :meth:`NetworkModel.send`
computes hops and latency once per ``(src, dst, size_bytes)``, keeps them
in a route table, and returns the latency as a plain ``int``.  Every
message, hop and byte is still counted so experiments can report traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.interconnect.topology import Topology
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry

#: Control messages (requests, invalidations, acks) are a few header bytes.
CONTROL_MESSAGE_BYTES = 8

#: Data messages carry a cache line plus a header.
DATA_MESSAGE_BYTES = 72


class NetworkModel:
    """Computes message latencies over a :class:`Topology`.

    Parameters
    ----------
    topology:
        Node placement and hop metric.
    link_bandwidth_gbps:
        Link bandwidth in gigabytes per second (12 GB/s in Table 2).
    per_hop_latency_ns:
        Router pipeline plus link traversal latency for each hop.
    """

    def __init__(self, topology: Topology,
                 link_bandwidth_gbps: float = 12.0,
                 per_hop_latency_ns: float = 1.0,
                 stats: Optional[StatsRegistry] = None,
                 name: str = "network") -> None:
        self.topology = topology
        self.link_bandwidth_gbps = link_bandwidth_gbps
        self.per_hop_latency_ps = ns_to_ps(per_hop_latency_ns)
        self.stats = stats if stats is not None else StatsRegistry()
        self.name = name
        self._messages_stat = f"{name}.messages"
        self._hops_stat = f"{name}.hops"
        self._bytes_stat = f"{name}.bytes"
        #: kind -> its ``<name>.messages_<kind>`` counter, bound on first use.
        self._kind_stats: Dict[str, str] = {}
        #: (src, dst, size_bytes) -> (latency_ps, hops), filled on first use.
        self._routes: Dict[Tuple[str, str, int], Tuple[int, int]] = {}

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def _serialisation_ps(self, size_bytes: int) -> int:
        if self.link_bandwidth_gbps <= 0:
            return 0
        bytes_per_ns = self.link_bandwidth_gbps  # 1 GB/s == 1 byte/ns
        return ns_to_ps(size_bytes / bytes_per_ns)

    def _route(self, src: str, dst: str, size_bytes: int) -> Tuple[int, int]:
        # The topology raises on an unknown node before anything is stored.
        hops = self.topology.hops(src, dst)
        route = (hops * self.per_hop_latency_ps
                 + self._serialisation_ps(size_bytes), hops)
        self._routes[src, dst, size_bytes] = route
        return route

    def send(self, src: str, dst: str, size_bytes: int = DATA_MESSAGE_BYTES,
             kind: str = "data") -> int:
        """Send one message, count it, and return its latency in ps.

        A message between a node and itself (for example a core whose home
        L2 bank is co-located) still pays the serialisation delay but no hop
        latency.
        """
        route = self._routes.get((src, dst, size_bytes))
        if route is None:
            route = self._route(src, dst, size_bytes)
        latency, hops = route
        kind_stat = self._kind_stats.get(kind)
        if kind_stat is None:
            kind_stat = self._kind_stats[kind] = f"{self.name}.messages_{kind}"
        stats = self.stats
        stats.add(self._messages_stat)
        stats.add(kind_stat)
        stats.add(self._hops_stat, hops)
        stats.add(self._bytes_stat, size_bytes)
        return latency

    def round_trip(self, a: str, b: str,
                   request_bytes: int = CONTROL_MESSAGE_BYTES,
                   response_bytes: int = DATA_MESSAGE_BYTES) -> int:
        """Latency of a request/response pair between ``a`` and ``b``."""
        return (self.send(a, b, request_bytes, "request")
                + self.send(b, a, response_bytes, "response"))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def total_messages(self) -> int:
        """Number of messages sent so far."""
        return self.stats.get(self._messages_stat)

    @property
    def total_bytes(self) -> int:
        """Total bytes carried so far."""
        return self.stats.get(self._bytes_stat)
