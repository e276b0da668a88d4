"""Plugin registries: the pluggable half of the control plane.

Every named, swappable component family in the platform -- allocation
policies, scaling policies, reward functions, record sharders, application
models, config presets -- is constructed through a string-keyed
:class:`Registry`.  The enum ``if/elif`` factories of earlier revisions are
now thin ``registry.create(name, ...)`` lookups, which means:

- adding a policy is *registration*, not *editing the assembly core*: a new
  backend registers itself under a name and every construction site (CLI,
  session builder, workflow engine, platform facade) picks it up;
- out-of-tree code can register policies without touching this package at
  all -- see :func:`load_plugins`;
- unknown names fail uniformly with :class:`ConfigurationError` listing
  what *is* registered, instead of a per-factory ad-hoc exception.

The registries themselves live next to the component family that owns them
(``repro.scheduler.allocation.ALLOCATION_POLICIES`` and so on); this module
provides the generic machinery plus the global registry-of-registries that
``scan-sim policies`` and :func:`load_plugins` operate on.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Dict, Generic, Iterator, Optional, TypeVar

from repro.core.errors import ConfigurationError

__all__ = [
    "Registry",
    "all_registries",
    "get_registry",
    "load_plugins",
    "PLUGIN_ENV_VAR",
    "PLUGIN_GROUP",
]

T = TypeVar("T")

#: Environment variable naming plugin modules to import (``:``- or
#: ``,``-separated), e.g. ``SCAN_SIM_PLUGINS=mylab.policies:mylab.apps``.
PLUGIN_ENV_VAR = "SCAN_SIM_PLUGINS"

#: Entry-point group scanned by :func:`load_plugins` when the running
#: distribution metadata declares one.
PLUGIN_GROUP = "scan_sim.plugins"

#: Global registry-of-registries, keyed by kind (``"allocation"``,
#: ``"scaling"``, ...).  Populated as each component module imports.
_REGISTRIES: "Dict[str, Registry[Any]]" = {}


class Registry(Generic[T]):
    """A string-keyed factory registry for one component family.

    Entries are factories: callables invoked by :meth:`create` with
    whatever arguments the construction site passes through.  Classes
    register naturally (the class *is* its factory); so do plain
    functions and lambdas.
    """

    def __init__(self, kind: str) -> None:
        if not kind:
            raise ValueError("registry kind must be non-empty")
        self.kind = kind
        self._factories: Dict[str, Callable[..., T]] = {}
        if kind in _REGISTRIES:
            raise ValueError(f"registry kind {kind!r} already exists")
        _REGISTRIES[kind] = self

    # -- registration ------------------------------------------------------
    def register(
        self, name: str, factory: Optional[Callable[..., T]] = None
    ) -> Callable[..., T]:
        """Register *factory* under *name*; usable as a decorator.

        Re-registration replaces (last writer wins), so plugins may
        deliberately override a built-in by reusing its name.
        """
        if not name:
            raise ConfigurationError(
                f"{self.kind} registry: name must be non-empty"
            )
        if factory is None:

            def decorator(obj: Callable[..., T]) -> Callable[..., T]:
                self._factories[name] = obj
                return obj

            return decorator
        self._factories[name] = factory
        return factory

    # -- lookup ------------------------------------------------------------
    def get(self, name: str) -> Callable[..., T]:
        """The factory registered under *name* (no instantiation)."""
        key = self._key(name)
        try:
            return self._factories[key]
        except KeyError:
            raise self._unknown(key) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> T:
        """Instantiate the component registered under *name*."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        """Registered names, sorted."""
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._factories

    def __len__(self) -> int:
        return len(self._factories)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"

    @staticmethod
    def _key(name: Any) -> str:
        # str-valued enums (AllocationAlgorithm etc.) key by their value,
        # so construction sites can pass either the enum or the raw name.
        value = getattr(name, "value", name)
        return value if isinstance(value, str) else str(value)

    def _unknown(self, name: str) -> ConfigurationError:
        known = ", ".join(self.names()) or "(none)"
        return ConfigurationError(
            f"unknown {self.kind} {name!r}; registered: {known}"
        )


def all_registries() -> Dict[str, "Registry[Any]"]:
    """Every live registry, keyed by kind (import side effects included).

    Importing :mod:`repro.scheduler` / :mod:`repro.broker` / :mod:`repro.apps`
    is what populates the built-in entries, so force those imports here --
    ``scan-sim policies`` must list the full picture regardless of what the
    caller already imported.
    """
    for module in (
        "repro.scheduler.allocation",
        "repro.scheduler.scaling",
        "repro.scheduler.rewards",
        "repro.cloud.tiers",
        "repro.core.ledger",
        "repro.broker.sharders",
        "repro.apps.registry",
        "repro.core.presets",
        "repro.knowledge.plane",
        "repro.service.queue",
        "repro.workflows.library",
    ):
        importlib.import_module(module)
    return dict(sorted(_REGISTRIES.items()))


def get_registry(kind: str) -> "Registry[Any]":
    """The registry for *kind*; unknown kinds raise ConfigurationError."""
    registries = all_registries()
    try:
        return registries[kind]
    except KeyError:
        known = ", ".join(registries) or "(none)"
        raise ConfigurationError(
            f"unknown registry kind {kind!r}; registered: {known}"
        ) from None


def load_plugins(modules: Optional[list[str]] = None) -> list[str]:
    """Import out-of-tree plugin modules so their registrations run.

    Sources, in order:

    1. *modules* given explicitly by the caller;
    2. the :data:`PLUGIN_ENV_VAR` environment variable (``:``/``,``-separated
       module paths);
    3. installed-distribution entry points in the :data:`PLUGIN_GROUP`
       group, when importlib metadata is available.

    A plugin module registers its components at import time with the
    ``@REGISTRY.register("name")`` decorator -- exactly how the built-ins
    do it.  Returns the list of module/entry-point names loaded; a module
    that fails to import raises :class:`ConfigurationError` naming it.
    """
    loaded: list[str] = []
    wanted = list(modules) if modules else []
    env = os.environ.get(PLUGIN_ENV_VAR, "")
    for chunk in env.replace(",", ":").split(":"):
        if chunk.strip():
            wanted.append(chunk.strip())
    for module in wanted:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise ConfigurationError(
                f"cannot import plugin module {module!r}: {exc}"
            ) from exc
        loaded.append(module)
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8 fallback, never hit
        return loaded
    try:
        eps = entry_points(group=PLUGIN_GROUP)
    except TypeError:  # pragma: no cover - legacy (<3.10) signature
        eps = entry_points().get(PLUGIN_GROUP, ())  # type: ignore[call-arg]
    for ep in eps:
        try:
            ep.load()
        except Exception as exc:  # noqa: BLE001 - surface as config error
            raise ConfigurationError(
                f"plugin entry point {ep.name!r} failed to load: {exc}"
            ) from exc
        loaded.append(f"entry-point:{ep.name}")
    return loaded
