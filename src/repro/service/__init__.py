"""The sweep service (``repro serve``) and its clients.

The service owns a worker fleet (``repro worker`` processes, which speak
exactly its protocol version — other versions are refused with an
``error`` frame) and a named job queue with priorities and fair-share
scheduling across submitters.  Jobs are declarative
:class:`~repro.api.JobSpec` payloads — ``module:qualname`` function
references, never pickled callables.  It is the one sweep coordinator:
``--backend distributed`` runs a private instance of it inside the
coordinator's process, with the same ``repro worker`` fleet.

- :mod:`repro.service.jobs` — the queue and scheduling policy (pure,
  loop-free Python).
- :mod:`repro.service.server` — the asyncio server behind ``repro
  serve``: worker fleet, result streaming, SIGTERM drain; plus
  :class:`~repro.service.server.ServiceThread`, which serves it on its
  own event-loop thread, and the private
  :class:`~repro.service.server.PrivateSweepService` behind
  ``--backend distributed``.
- :mod:`repro.service.client` — :class:`~repro.service.client.ServiceClient`
  (the ``repro submit``/``status``/``result``/``cancel`` plumbing) and
  :class:`~repro.service.client.ServiceBackend` (``--backend service``).
"""

from repro.service.client import (
    ServiceBackend,
    ServiceClient,
    default_service_address,
)
from repro.service.jobs import JobQueue, ServiceError, ServiceJob
from repro.service.server import ServiceThread, SweepService, run_service

__all__ = [
    "JobQueue",
    "ServiceBackend",
    "ServiceClient",
    "ServiceError",
    "ServiceJob",
    "ServiceThread",
    "SweepService",
    "default_service_address",
    "run_service",
]
