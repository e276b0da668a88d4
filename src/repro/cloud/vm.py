"""Virtual-machine lifecycle with start/restart penalties.

"We now pay the 30 second startup penalty whenever a worker was previously
assigned to a pool that uses a different number of threads, as CELAR would
need to shut it down, adjust the number of VCPUs, and restart it for its
new role" (paper Section IV-B).  With the paper's TU ~ 1 minute convention
the penalty defaults to 0.5 TU.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.core.errors import CloudError
from repro.cloud.infrastructure import Infrastructure
from repro.desim.engine import Environment

__all__ = ["VMState", "VirtualMachine"]

_vm_ids = itertools.count(1)


class VMState(str, enum.Enum):
    """VM lifecycle states."""
    BOOTING = "booting"
    READY = "ready"
    BUSY = "busy"
    TERMINATED = "terminated"


class VirtualMachine:
    """A hired instance: N cores on one tier, costing while it exists.

    Core accounting starts at hire (the provider bills from boot) and stops
    at termination.  Boot and resize take ``startup_penalty_tu``.
    """

    def __init__(
        self,
        env: Environment,
        infrastructure: Infrastructure,
        cores: int,
        tier: str,
        startup_penalty_tu: float = 0.5,
    ) -> None:
        if cores < 1:
            raise CloudError(f"VM needs at least 1 core, got {cores}")
        if startup_penalty_tu < 0:
            raise CloudError("startup penalty must be >= 0")
        self.env = env
        self.infrastructure = infrastructure
        self.uid = next(_vm_ids)
        self.cores = cores
        self.tier = tier
        self.startup_penalty_tu = startup_penalty_tu
        self.state = VMState.BOOTING
        self.hired_at = env.now
        self.terminated_at: Optional[float] = None
        self.boot_count = 0
        infrastructure.allocate(cores, self.tier)

    def begin_boot(self) -> float:
        """Start a (re)boot: BOOTING now; returns the penalty to wait (TU).

        The caller waits the penalty out on the calendar and then calls
        :meth:`finish_boot`; with a zero penalty it finishes at once.
        """
        if self.state is VMState.TERMINATED:
            raise CloudError(f"VM {self.uid} is terminated")
        self.state = VMState.BOOTING
        self.boot_count += 1
        return self.startup_penalty_tu

    def finish_boot(self) -> None:
        """End a boot: READY, unless the VM was terminated meanwhile."""
        if self.state is not VMState.TERMINATED:
            self.state = VMState.READY

    def reshape(self, new_cores: int) -> None:
        """Synchronously change the vCPU count (settles core accounting).

        Separate from the reboot so callers can claim capacity at decision
        time -- between a scheduling decision and the boot process running,
        other decisions fire, and check-then-allocate must not race.
        A reboot (:meth:`begin_boot`, then :meth:`finish_boot`) must
        follow before the VM serves work.
        """
        if self.state is VMState.TERMINATED:
            raise CloudError(f"VM {self.uid} is terminated")
        if new_cores < 1:
            raise CloudError(f"VM needs at least 1 core, got {new_cores}")
        if new_cores != self.cores:
            delta = new_cores - self.cores
            if delta > 0:
                self.infrastructure.allocate(delta, self.tier)
            else:
                self.infrastructure.release(-delta, self.tier)
            self.cores = new_cores
        self.state = VMState.BOOTING

    def mark_busy(self) -> None:
        """Transition READY -> BUSY (taking a task)."""
        if self.state is not VMState.READY:
            raise CloudError(
                f"VM {self.uid} must be READY to take work (state={self.state.value})"
            )
        self.state = VMState.BUSY

    def mark_idle(self) -> None:
        """Transition BUSY -> READY (task done)."""
        if self.state is not VMState.BUSY:
            raise CloudError(
                f"VM {self.uid} is not BUSY (state={self.state.value})"
            )
        self.state = VMState.READY

    def terminate(self) -> None:
        """Release cores and stop billing.  Idempotent."""
        if self.state is VMState.TERMINATED:
            return
        self.state = VMState.TERMINATED
        self.terminated_at = self.env.now
        self.infrastructure.release(self.cores, self.tier)

    @property
    def alive(self) -> bool:
        return self.state is not VMState.TERMINATED

    @property
    def core_cost_per_tu(self) -> float:
        return self.cores * self.infrastructure.tier(self.tier).core_cost_per_tu

    def lifetime(self) -> float:
        """Time from hire to termination (or to now) in TU."""
        end = self.terminated_at if self.terminated_at is not None else self.env.now
        return end - self.hired_at

    def accumulated_cost(self) -> float:
        """CU spent on this VM so far (uniform shape over its lifetime)."""
        return self.lifetime() * self.core_cost_per_tu

    def __repr__(self) -> str:
        return (
            f"<VM {self.uid} {self.cores}c {self.tier} "
            f"{self.state.value}>"
        )
