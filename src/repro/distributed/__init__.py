"""The distributed execution plane: coordinator, remote workers, launcher.

This package promotes the execution plane from the fork-based local
:class:`~repro.execution.WorkerPool` to a machine-spanning work queue.  The
:class:`DistributedPool` coordinator exposes the same batch interface and the
same deterministic results — byte-identical to pooled mode regardless of
worker placement, deaths, or result arrival order — while remote workers
(``python -m repro worker --connect HOST:PORT``) join and leave elastically
over the length-prefixed JSON frame protocol of :mod:`.protocol`.

Select it with ``ExecutionConfig.default_mode = "distributed"`` or
``mode="distributed"`` on any request; see docs/DISTRIBUTED.md.
"""

from .coordinator import DistributedPool
from .launcher import LocalWorkerFleet, launch_workers, parse_address, worker_command
from .protocol import (
    FRAME_KINDS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Frame,
    GoodbyeFrame,
    HeartbeatFrame,
    HelloFrame,
    LeaseFrame,
    RegisterFrame,
    ResultFrame,
    encode_frame,
    frame_from_dict,
    recv_frame,
    send_frame,
)
from .worker import RemoteWorker, default_worker_id, run_worker

__all__ = [
    "DistributedPool",
    "FRAME_KINDS",
    "Frame",
    "GoodbyeFrame",
    "HeartbeatFrame",
    "HelloFrame",
    "LeaseFrame",
    "LocalWorkerFleet",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RegisterFrame",
    "RemoteWorker",
    "ResultFrame",
    "default_worker_id",
    "encode_frame",
    "frame_from_dict",
    "launch_workers",
    "parse_address",
    "recv_frame",
    "run_worker",
    "send_frame",
    "worker_command",
]
