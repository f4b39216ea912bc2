"""Tests for the network timing model."""

import pytest

from repro.config import ccsvm_system
from repro.core.chip import CCSVMChip
from repro.errors import InterconnectError
from repro.interconnect.network import CONTROL_MESSAGE_BYTES, DATA_MESSAGE_BYTES, NetworkModel
from repro.interconnect.topology import Torus2DTopology
from repro.sim.clock import ns_to_ps
from repro.sim.stats import StatsRegistry


def make_network(stats=None):
    names = [f"n{i}" for i in range(9)]
    return NetworkModel(Torus2DTopology(names, 3, 3), link_bandwidth_gbps=12.0,
                        per_hop_latency_ns=1.0, stats=stats)


def expected_latency(network, src, dst, size_bytes):
    """Hop latency plus serialisation, from the topology and the link rate."""
    return (network.topology.hops(src, dst) * network.per_hop_latency_ps
            + ns_to_ps(size_bytes / network.link_bandwidth_gbps))


class TestTiming:
    def test_latency_grows_with_hops(self):
        network = make_network()
        assert network.topology.hops("n0", "n4") > network.topology.hops("n0", "n1")
        assert network.send("n0", "n4") > network.send("n0", "n1")

    def test_serialisation_depends_on_size(self):
        network = make_network()
        small = network.send("n0", "n1", size_bytes=CONTROL_MESSAGE_BYTES)
        large = network.send("n0", "n1", size_bytes=DATA_MESSAGE_BYTES)
        assert isinstance(small, int) and isinstance(large, int)
        assert large > small

    def test_self_message_pays_only_serialisation(self):
        stats = StatsRegistry()
        network = make_network(stats)
        assert network.send("n0", "n0", size_bytes=72) == ns_to_ps(72 / 12.0)
        # A 0-hop message still creates the hop counter.
        assert "network.hops" in stats
        assert stats["network.hops"] == 0

    def test_round_trip_is_sum(self):
        network = make_network()
        total = network.round_trip("n0", "n4")
        assert total == (expected_latency(network, "n0", "n4", CONTROL_MESSAGE_BYTES)
                         + expected_latency(network, "n4", "n0", DATA_MESSAGE_BYTES))

    def test_zero_bandwidth_means_no_serialisation(self):
        names = ["a", "b"]
        network = NetworkModel(Torus2DTopology(names, 2, 1), link_bandwidth_gbps=0)
        assert network.send("a", "b", size_bytes=1000) == network.per_hop_latency_ps


class TestRouteTable:
    def test_every_route_of_the_default_chip_first_and_repeated(self):
        network = CCSVMChip(ccsvm_system()).network
        stats = network.stats
        nodes = network.topology.nodes
        assert len(nodes) == 19
        for size in (CONTROL_MESSAGE_BYTES, DATA_MESSAGE_BYTES):
            for src in nodes:
                for dst in nodes:
                    hops = network.topology.hops(src, dst)
                    expected = expected_latency(network, src, dst, size)
                    deltas = []
                    for _ in range(2):
                        before = stats.to_dict()
                        assert network.send(src, dst, size, "probe") == expected
                        after = stats.to_dict()
                        deltas.append({name: after[name] - before.get(name, 0)
                                       for name in after
                                       if name.startswith("network.")})
                    assert deltas[0] == deltas[1] == {
                        "network.messages": 1, "network.messages_probe": 1,
                        "network.hops": hops, "network.bytes": size}

    @pytest.mark.parametrize("src,dst", [("ghost", "n1"), ("n1", "ghost"),
                                         ("ghost", "ghost")])
    def test_unknown_node_raises_every_time(self, src, dst):
        stats = StatsRegistry()
        network = make_network(stats)
        for _ in range(2):
            with pytest.raises(InterconnectError):
                network.send(src, dst, CONTROL_MESSAGE_BYTES, "probe")
        assert len(stats) == 0


class TestAccounting:
    def test_messages_and_bytes_counted(self):
        stats = StatsRegistry()
        network = make_network(stats)
        network.send("n0", "n1", size_bytes=64, kind="data")
        network.send("n1", "n2", size_bytes=8, kind="inv")
        assert network.total_messages == 2
        assert network.total_bytes == 72
        assert stats["network.messages_data"] == 1
        assert stats["network.messages_inv"] == 1
        assert stats["network.hops"] == 2
