"""CELAR elasticity middleware stand-in: Manager and Decision Module.

"The CELAR Manager is a cloud component to orchestrate and execute the
deployment of the applications in the cloud, and the Decision Module takes
automated control measures, based on application behaviour and the
user-defined requirements ... the SCAN can query the analysis performance
characteristics and issue scaling commands to the underlying cloud
infrastructure" (paper Section III-B).

The :class:`CelarManager` owns VM deployment/resize/termination (imposing
the startup penalty); the :class:`CelarDecisionModule` evaluates
user-defined threshold rules against metrics the platform reports and
emits :class:`ScalingCommand` suggestions.  SCAN's own predictive scaler
makes the actual hire decisions; the decision module demonstrates the
middleware interface the paper integrates with ("the SCAN can function
independent of the CELAR").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cloud.infrastructure import Infrastructure
from repro.cloud.vm import VirtualMachine
from repro.core.errors import CloudError, TransientDeployError
from repro.desim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.cloud.faults import FaultInjector

__all__ = ["CelarManager", "CelarDecisionModule", "ScalingCommand", "ScalingRule"]


class ScalingCommand(str, enum.Enum):
    """Elasticity action suggested by the decision module."""
    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    HOLD = "hold"


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
        self.vms: list[VirtualMachine] = []
        self.deploy_count = 0
        self.resize_count = 0
        self.deploy_failures = 0

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
        runs.  Call ``env.process(vm.boot())`` (or let the worker pool do
        it) to bring the VM to READY.

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
            self.deploy_failures += 1
            raise TransientDeployError(
                f"transient provisioning error on {tier} tier "
                f"({cores} cores)"
            )
        penalty = self.startup_penalty_tu
        extra = self.infrastructure.tier(tier).allocation_latency_tu(cores)
        if extra > 0:
            penalty += extra
        vm = VirtualMachine(
            self.env,
            self.infrastructure,
            cores=cores,
            tier=tier,
            startup_penalty_tu=penalty,
        )
        self.vms.append(vm)
        self.deploy_count += 1
        return vm

    def deploy_and_boot(self, cores: int, tier: str):
        """Process: :meth:`deploy` then boot; returns the READY VM."""
        vm = self.deploy(cores, tier)
        yield from vm.boot()
        return vm

    def begin_resize(self, vm: VirtualMachine, new_cores: int) -> None:
        """Synchronously reshape a VM; a reboot must follow (same rationale
        as :meth:`deploy`: core deltas settle at decision time)."""
        if new_cores not in self.allowed_sizes:
            raise CloudError(
                f"{new_cores} is not an allowed instance size {self.allowed_sizes}"
            )
        self.resize_count += 1
        vm.reshape(new_cores)

    def resize(self, vm: VirtualMachine, new_cores: int):
        """Process: stop, adjust vCPUs, restart (pays the penalty)."""
        self.begin_resize(vm, new_cores)
        yield from vm.boot()
        return vm

    def terminate(self, vm: VirtualMachine) -> None:
        """Terminate a VM (releases its cores; idempotent)."""
        vm.terminate()

    def alive_vms(self) -> list[VirtualMachine]:
        """All VMs not yet terminated."""
        return [vm for vm in self.vms if vm.alive]

    def terminate_all(self) -> None:
        """Terminate every live VM."""
        for vm in self.alive_vms():
            vm.terminate()


@dataclass(frozen=True)
class ScalingRule:
    """A user-defined elasticity rule: metric thresholds -> command."""

    metric: str
    scale_out_above: float
    scale_in_below: float

    def __post_init__(self) -> None:
        if self.scale_in_below > self.scale_out_above:
            raise CloudError(
                "scale_in_below must not exceed scale_out_above"
            )

    def evaluate(self, value: float) -> ScalingCommand:
        """The command this rule issues for a metric value."""
        if value > self.scale_out_above:
            return ScalingCommand.SCALE_OUT
        if value < self.scale_in_below:
            return ScalingCommand.SCALE_IN
        return ScalingCommand.HOLD


class CelarDecisionModule:
    """Threshold-rule engine over reported application metrics."""

    def __init__(self) -> None:
        self._rules: dict[str, ScalingRule] = {}
        self._metrics: dict[str, float] = {}
        self._listeners: list[Callable[[str, ScalingCommand], None]] = []

    def add_rule(self, rule: ScalingRule) -> None:
        """Install (or replace) the rule for the rule's metric."""
        self._rules[rule.metric] = rule

    def report(self, metric: str, value: float) -> Optional[ScalingCommand]:
        """Report an application metric; returns the triggered command."""
        self._metrics[metric] = value
        rule = self._rules.get(metric)
        if rule is None:
            return None
        command = rule.evaluate(value)
        for listener in self._listeners:
            listener(metric, command)
        return command

    def on_command(self, listener: Callable[[str, ScalingCommand], None]) -> None:
        """Register a listener for triggered commands."""
        self._listeners.append(listener)

    def latest(self, metric: str, default: float = 0.0) -> float:
        """The most recently reported value of *metric*."""
        return self._metrics.get(metric, default)
