"""SCAN platform core: configuration, errors and the facade.

:class:`~repro.core.platform.SCANPlatform` wires the Data Broker, Scheduler,
Workers, knowledge base and the simulated cloud into the integrated platform
of the paper's Figure 2.
"""

from repro.core.config import (
    PlatformConfig,
    SimulationConfig,
    RewardConfig,
    CloudConfig,
    WorkloadConfig,
    SchedulerConfig,
    BrokerConfig,
    FaultConfig,
    ResilienceConfig,
    RewardScheme,
    AllocationAlgorithm,
    ScalingAlgorithm,
)
from repro.core.errors import (
    SCANError,
    ConfigurationError,
    SchedulingError,
    BrokerError,
    KnowledgeBaseError,
    TransientDeployError,
)

__all__ = [
    "PlatformConfig",
    "SimulationConfig",
    "RewardConfig",
    "CloudConfig",
    "WorkloadConfig",
    "SchedulerConfig",
    "BrokerConfig",
    "FaultConfig",
    "ResilienceConfig",
    "RewardScheme",
    "AllocationAlgorithm",
    "ScalingAlgorithm",
    "SCANError",
    "ConfigurationError",
    "SchedulingError",
    "BrokerError",
    "KnowledgeBaseError",
    "TransientDeployError",
]
