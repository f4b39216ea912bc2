"""Coherence protocol message vocabulary.

Messages are not queued or raced in this model (transactions are atomic);
the enum exists so the protocol can tag every network traversal with what it
was, giving the experiments an exact breakdown of coherence traffic.
"""

from __future__ import annotations

import enum


class MessageType(enum.Enum):
    """Every message the MOESI directory protocol exchanges."""

    # Requests from an L1 controller to the home directory.
    GET_SHARED = "GetS"          #: load miss — request a readable copy
    GET_MODIFIED = "GetM"        #: store miss — request an exclusive copy
    UPGRADE = "Upg"              #: store hit in S/O — request ownership only
    PUT_MODIFIED = "PutM"        #: eviction of a dirty (M/O) block
    PUT_CLEAN = "PutS"           #: eviction of a clean (E/S) block

    # Directory-to-L1 traffic.
    FWD_GET_SHARED = "FwdGetS"   #: forward a read request to the owner
    FWD_GET_MODIFIED = "FwdGetM"  #: forward a write request to the owner
    INVALIDATE = "Inv"           #: invalidate a shared copy
    RECALL = "Recall"            #: inclusive-L2 eviction recalls L1 copies

    # Data and acknowledgements.
    DATA = "Data"                #: cache-line data transfer
    DATA_EXCLUSIVE = "DataE"     #: data granted with exclusive permission
    ACK = "Ack"                  #: invalidation / writeback acknowledgement
    WRITEBACK = "WB"             #: dirty data written back to L2 or memory

    @property
    def carries_data(self) -> bool:
        """True when the message payload includes a full cache line."""
        return self in (
            MessageType.DATA,
            MessageType.DATA_EXCLUSIVE,
            MessageType.WRITEBACK,
            MessageType.PUT_MODIFIED,
        )

    @property
    def counter_name(self) -> str:
        """Stable stats-counter suffix for this message type."""
        return self.value.lower()
