"""On-chip interconnection networks.

The CCSVM chip connects CPU cores, MTTOP cores, the L2/directory banks and
the memory controller over a 2D torus (Figure 1 of the paper, drawn as a
mesh for clarity) with dimension-order routing and 12 GB/s links (Table 2).
The APU baseline uses a crossbar between CPU cores and a full connection to
the memory controllers, also per Table 2.
"""

from repro.interconnect.topology import CrossbarTopology, Torus2DTopology, Topology
from repro.interconnect.network import NetworkModel

__all__ = [
    "CrossbarTopology",
    "NetworkModel",
    "Topology",
    "Torus2DTopology",
]
