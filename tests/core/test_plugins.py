"""The generic plugin registry machinery."""

import sys
import textwrap

import pytest

from repro.core.config import AllocationAlgorithm
from repro.core.errors import ConfigurationError
from repro.core.plugins import (
    PLUGIN_ENV_VAR,
    Registry,
    all_registries,
    get_registry,
    load_plugins,
)
from repro.core.plugins import _REGISTRIES


@pytest.fixture
def registry():
    reg = Registry("widget-test")
    try:
        yield reg
    finally:
        _REGISTRIES.pop("widget-test", None)


class TestRegistry:
    def test_register_and_create(self, registry):
        registry.register("a", lambda x: x * 2)
        assert registry.create("a", 21) == 42

    def test_decorator_registration(self, registry):
        @registry.register("b")
        def make(value=1):
            return value + 1

        assert registry.create("b", value=9) == 10
        assert make(1) == 2  # decorator returns the factory unchanged

    def test_unknown_name_lists_registered(self, registry):
        registry.register("alpha", lambda: None)
        registry.register("beta", lambda: None)
        with pytest.raises(
            ConfigurationError, match=r"unknown widget-test 'gamma'"
        ) as exc:
            registry.create("gamma")
        assert "alpha, beta" in str(exc.value)

    def test_empty_registry_unknown_message(self, registry):
        with pytest.raises(ConfigurationError, match=r"\(none\)"):
            registry.get("anything")

    def test_enum_keys_resolve_by_value(self, registry):
        registry.register("greedy", lambda: "made-greedy")
        assert registry.create(AllocationAlgorithm.GREEDY) == "made-greedy"
        assert AllocationAlgorithm.GREEDY in registry

    def test_last_writer_wins(self, registry):
        registry.register("x", lambda: 1)
        registry.register("x", lambda: 2)
        assert registry.create("x") == 2
        assert len(registry) == 1

    def test_names_sorted_and_iterable(self, registry):
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, lambda: None)
        assert registry.names() == ["alpha", "mid", "zeta"]
        assert list(registry) == ["alpha", "mid", "zeta"]
        assert "alpha" in repr(registry)

    def test_empty_names_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.register("", lambda: None)
        with pytest.raises(ValueError):
            Registry("")

    def test_duplicate_kind_rejected(self, registry):
        with pytest.raises(ValueError, match="widget-test"):
            Registry("widget-test")


class TestGlobalRegistries:
    def test_all_builtin_kinds_present(self):
        kinds = set(all_registries())
        assert {
            "allocation",
            "application",
            "preset",
            "reward",
            "scaling",
            "sharder",
        } <= kinds

    def test_get_registry_by_kind(self):
        assert "greedy" in get_registry("allocation")
        assert "predictive" in get_registry("scaling")

    def test_get_registry_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="styling"):
            get_registry("styling")


class TestLoadPlugins:
    def test_explicit_module_list(self, tmp_path, monkeypatch):
        (tmp_path / "fake_scan_plugin.py").write_text(
            textwrap.dedent(
                """
                from repro.scheduler.scaling import SCALING_POLICIES

                @SCALING_POLICIES.register("test-noop")
                def _make(horizon_tu=5.0):
                    raise NotImplementedError
                """
            )
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        # The plugin registers into a copy of the global table.
        reg = get_registry("scaling")
        monkeypatch.setattr(reg, "_factories", dict(reg._factories))
        try:
            loaded = load_plugins(["fake_scan_plugin"])
            assert loaded == ["fake_scan_plugin"]
            assert "test-noop" in get_registry("scaling")
        finally:
            sys.modules.pop("fake_scan_plugin", None)

    def test_env_var_modules(self, tmp_path, monkeypatch):
        (tmp_path / "fake_env_plugin.py").write_text("LOADED = True\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv(PLUGIN_ENV_VAR, "fake_env_plugin")
        try:
            assert "fake_env_plugin" in load_plugins()
            assert sys.modules["fake_env_plugin"].LOADED
        finally:
            sys.modules.pop("fake_env_plugin", None)

    def test_missing_module_is_config_error(self, monkeypatch):
        monkeypatch.delenv(PLUGIN_ENV_VAR, raising=False)
        with pytest.raises(ConfigurationError, match="no_such_plugin"):
            load_plugins(["no_such_plugin"])

    def test_no_sources_loads_nothing(self, monkeypatch):
        monkeypatch.delenv(PLUGIN_ENV_VAR, raising=False)
        assert load_plugins() == []
