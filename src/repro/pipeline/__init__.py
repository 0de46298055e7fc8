"""Out-of-order pipeline data (RUU/ROB model of Sohi).

The ROB, the memory access queues and the MULT/DIV unit pools the
stages share; the pipeline logic lives in :mod:`repro.core.stages`.
"""

from repro.pipeline.rob import Rob, RobEntry
from repro.pipeline.fu import FuPool
from repro.pipeline.memqueue import MemQueue, MemQueueEntry

__all__ = ["Rob", "RobEntry", "FuPool", "MemQueue", "MemQueueEntry"]
