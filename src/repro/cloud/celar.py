"""CELAR elasticity middleware stand-in: the Manager.

"The CELAR Manager is a cloud component to orchestrate and execute the
deployment of the applications in the cloud, and the Decision Module takes
automated control measures, based on application behaviour and the
user-defined requirements ... the SCAN can query the analysis performance
characteristics and issue scaling commands to the underlying cloud
infrastructure" (paper Section III-B).

:class:`CelarManager` owns VM deployment, resize and termination (imposing
the startup penalty); the worker pools boot the VMs it hands out.  There is
no Decision Module: SCAN's own predictive scaler makes every hire decision
("the SCAN can function independent of the CELAR"), and the paper only
uses CELAR to resize VMs with the startup penalty.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cloud.infrastructure import Infrastructure
from repro.cloud.vm import VirtualMachine
from repro.core.errors import CloudError, TransientDeployError
from repro.desim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.cloud.faults import FaultInjector

__all__ = ["CelarManager"]


class CelarManager:
    """Deploys, resizes and terminates VMs on the simulated cloud."""

    def __init__(
        self,
        env: Environment,
        infrastructure: Infrastructure,
        startup_penalty_tu: float = 0.5,
        allowed_sizes: tuple[int, ...] = (1, 2, 4, 8, 16),
        ram_per_core_gb: float = 4.0,
        injector: "FaultInjector | None" = None,
    ) -> None:
        """``ram_per_core_gb``: instance memory scales with vCPUs (the
        paper's private nodes carry 64 GB across 16 cores -> 4 GB/core), so
        a memory-hungry stage may need a larger instance than its thread
        count alone would ("the GATK ... may need a large amount of main
        memory", Section II-A)."""
        if not allowed_sizes:
            raise CloudError("allowed_sizes must be non-empty")
        if ram_per_core_gb <= 0:
            raise CloudError("ram_per_core_gb must be positive")
        if startup_penalty_tu < 0:
            raise CloudError("startup penalty must be >= 0")
        self.env = env
        self.infrastructure = infrastructure
        self.startup_penalty_tu = startup_penalty_tu
        self.allowed_sizes = tuple(sorted(allowed_sizes))
        self.ram_per_core_gb = ram_per_core_gb
        #: Optional chaos layer; when set, deploys may bounce transiently.
        self.injector = injector

    def instance_ram_gb(self, cores: int) -> float:
        """Memory of a *cores*-vCPU instance."""
        return cores * self.ram_per_core_gb

    def fit_size(self, cores_needed: int, ram_gb: float = 0.0) -> int:
        """Smallest allowed instance with enough cores AND memory."""
        for size in self.allowed_sizes:
            if size >= cores_needed and self.instance_ram_gb(size) >= ram_gb:
                return size
        raise CloudError(
            f"no instance size fits {cores_needed} cores / {ram_gb} GB "
            f"(largest is {self.allowed_sizes[-1]})"
        )

    def deploy(self, cores: int, tier: str) -> VirtualMachine:
        """Hire a VM: cores are claimed NOW; boot still takes the penalty.

        Allocation is synchronous so a scheduling decision's capacity check
        cannot race against other decisions taken before the boot process
        runs.  The worker pool brings the VM to READY: ``vm.begin_boot()``
        returns the penalty, and ``vm.finish_boot()`` ends it once that
        much simulated time has passed.

        ``cores`` must be one of the allowed instance sizes (use
        :meth:`fit_size` to round up).  Tiers with per-allocation latency
        (a serverless cold start) add it to the boot penalty.
        """
        if cores not in self.allowed_sizes:
            raise CloudError(
                f"{cores} is not an allowed instance size {self.allowed_sizes}"
            )
        if self.injector is not None and self.injector.deploy_fails(tier):
            # Fails before any capacity is claimed, so there is nothing to
            # roll back -- the request simply bounced.
            raise TransientDeployError(
                f"transient provisioning error on {tier} tier "
                f"({cores} cores)"
            )
        penalty = self.startup_penalty_tu
        extra = self.infrastructure.tier(tier).allocation_latency_tu(cores)
        if extra > 0:
            penalty += extra
        return VirtualMachine(
            self.env,
            self.infrastructure,
            cores=cores,
            tier=tier,
            startup_penalty_tu=penalty,
        )

    def begin_resize(self, vm: VirtualMachine, new_cores: int) -> None:
        """Synchronously reshape a VM; a reboot must follow (same rationale
        as :meth:`deploy`: core deltas settle at decision time)."""
        if new_cores not in self.allowed_sizes:
            raise CloudError(
                f"{new_cores} is not an allowed instance size {self.allowed_sizes}"
            )
        vm.reshape(new_cores)

    def terminate(self, vm: VirtualMachine) -> None:
        """Terminate a VM (releases its cores; idempotent)."""
        vm.terminate()
