"""The chip and cache-only replay build one CCSVM memory system.

:class:`~repro.core.chip.CCSVMChip` and
:class:`~repro.mem.replay.CCSVMReplayHierarchy` both extend
:class:`~repro.mem.assemble.CCSVMMemory`.  From the same configuration
they must hold the same nodes and the same per-node parts, on the MTTOP
side as well as the CPU side: the counter gate in
``test_replay_equivalence.py`` replays host-only traces, so it never
reaches an MTTOP port.
"""

import pytest

from repro.config import ConfigurationError, apply_overrides, ccsvm_system
from repro.core.chip import CCSVMChip
from repro.mem.replay import CCSVMReplayHierarchy, replay_trace
from repro.mem.trace import Trace
from repro.systems import system_config

_CCSVM_PRESETS = ("ccsvm", "ccsvm-l3", "ccsvm-no-tlb", "ccsvm-small",
                  "ccsvm-tiny")


def _cache(cache):
    config = cache.config
    return (cache.name, config.size_bytes, config.associativity,
            config.line_size, config.replacement, config.hit_latency_ps)


def _parts(memory):
    """Everything the assembly decides, as plain comparable values."""
    nodes = {}
    for node, port in memory.ports.items():
        l1 = memory.coherence._l1s[node]
        nodes[node] = {
            "l1": (_cache(l1.cache), l1.hit_latency_ps),
            "tlb": None if port.tlb is None else (port.tlb.name,
                                                  port.tlb.capacity),
            "walker": (port.walker.name,
                       port.walker.default_entry_latency_ps),
            "port": (port.node, port.fast_path, port.batch_enabled,
                     port.sc_checker, port.coherence is memory.coherence,
                     port.vm_manager is memory.vm,
                     port.physical_memory is memory.physical_memory),
        }
    topology = memory.topology
    return {
        "nodes": (memory.cpu_nodes, memory.mttop_nodes, memory.l2_nodes,
                  memory.memory_node),
        "topology": (topology.width, topology.height, list(topology.nodes)),
        "ports": nodes,
        "l2_banks": [(bank.name, bank.directory.name, bank.hit_latency_ps,
                      _cache(bank.cache)) for bank in memory.l2_banks],
        "l3": (None if memory.l3_level is None
               else (memory.l3_level.name, memory.l3_level.spec)),
        "shootdown": (memory.shootdown.cpu_tlb_count,
                      memory.shootdown.mttop_tlb_count),
    }


@pytest.mark.parametrize("preset", _CCSVM_PRESETS)
def test_chip_and_replay_build_the_same_memory_system(preset):
    config = system_config(preset)
    chip = CCSVMChip(config)
    replay = CCSVMReplayHierarchy(config)
    assert chip.mttop_nodes, "the comparison must cover MTTOP ports"
    assert _parts(chip) == _parts(replay)
    assert list(replay.ports) == replay.cpu_nodes + replay.mttop_nodes
    # Each chip core runs on the port the shared assembly built for it.
    cores = chip.cpu_cores + chip.mttop_cores
    assert [core.memory_port for core in cores] == list(chip.ports.values())
    # What the chip adds: MTTOP page faults go through the MIFD.  Replay
    # ports keep the port's own default handler.
    for node in chip.mttop_nodes:
        assert chip.ports[node].page_fault_handler is not None
    for node in chip.cpu_nodes:
        assert chip.ports[node].page_fault_handler is None
    assert all(port.page_fault_handler is None
               for port in replay.ports.values())


def test_replay_refuses_write_through_mttop_l1s_as_the_chip_does():
    config = apply_overrides(ccsvm_system(), {"mttop.write_through": True})
    with pytest.raises(ConfigurationError,
                       match="write-through.*unimplemented feature"):
        replay_trace(Trace(hosts=[[]]), config)
