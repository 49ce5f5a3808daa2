"""Tests for the crashpoint registry and the chaos controller."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.chaos import CRASHPOINTS, ChaosController, SimulatedCrash, crashpoint
from repro.chaos.crashpoints import active_controller

SRC_ROOT = Path(repro.__file__).resolve().parent

#: The layers a crashpoint may be instrumented in (mirrors the lint rule).
INSTRUMENTED_DIRS = ("fe", "sqldb", "sto", "service", "chaos")


def all_call_sites():
    """Every literal crashpoint("...") call site under src/repro.

    Returns a list of (site_name, posix_relpath) pairs.
    """
    sites = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name != "crashpoint":
                continue
            assert node.args and isinstance(node.args[0], ast.Constant), (
                f"{path}: crashpoint() must take a string literal"
            )
            sites.append(
                (node.args[0].value, path.relative_to(SRC_ROOT).as_posix())
            )
    return sites


class TestRegistry:
    def test_at_least_twelve_sites(self):
        assert len(CRASHPOINTS) >= 12

    def test_names_follow_layer_convention(self):
        pattern = re.compile(
            r"^(fe|sqldb|sto|service|recovery)\.[a-z_]+\.[a-z_]+$"
        )
        for name in CRASHPOINTS:
            assert pattern.match(name), name

    def test_every_site_has_a_description(self):
        for name, description in CRASHPOINTS.items():
            assert description.strip(), name

    def test_robustness_doc_names_every_recovery_site(self):
        doc = (
            Path(__file__).resolve().parents[1] / "docs" / "ROBUSTNESS.md"
        ).read_text(encoding="utf-8")
        missing = [
            site
            for site in CRASHPOINTS
            if site.startswith("recovery.") and f"`{site}`" not in doc
        ]
        assert not missing, f"docs/ROBUSTNESS.md omits {missing}"

    def test_every_registered_site_is_instrumented_exactly_once(self):
        sites = all_call_sites()
        names = [name for name, __ in sites]
        assert sorted(names) == sorted(set(names)), "duplicate crashpoint sites"
        assert set(names) == set(CRASHPOINTS), (
            "registry and instrumentation disagree: "
            f"unregistered={set(names) - set(CRASHPOINTS)} "
            f"uninstrumented={set(CRASHPOINTS) - set(names)}"
        )

    def test_sites_confined_to_instrumented_layers(self):
        for name, relpath in all_call_sites():
            top = relpath.split("/", 1)[0]
            assert top in INSTRUMENTED_DIRS, f"{name} instrumented in {relpath}"

    def test_covers_fe_sqldb_and_all_sto_jobs(self):
        prefixes = {name.split(".", 2)[0] + "." + name.split(".", 2)[1]
                    for name in CRASHPOINTS}
        for required in (
            "fe.write",
            "fe.commit",
            "sqldb.commit",
            "sto.compaction",
            "sto.checkpoint",
            "sto.gc",
            "sto.publish",
            "service.admit",
            "service.dispatch",
        ):
            assert required in prefixes, required


class TestController:
    def test_noop_without_installed_controller(self):
        assert active_controller() is None
        crashpoint("fe.commit.before_validation")  # must not raise

    def test_armed_site_crashes_at_first_hit(self):
        controller = ChaosController(seed=1).arm("fe.commit.before_validation")
        with controller:
            with pytest.raises(SimulatedCrash) as excinfo:
                crashpoint("fe.commit.before_validation")
        assert excinfo.value.site == "fe.commit.before_validation"
        assert controller.crashes == ["fe.commit.before_validation"]

    def test_armed_site_counts_down_hits(self):
        controller = ChaosController(seed=1).arm(
            "fe.commit.before_validation", hits=3
        )
        with controller:
            crashpoint("fe.commit.before_validation")
            crashpoint("fe.commit.before_validation")
            with pytest.raises(SimulatedCrash):
                crashpoint("fe.commit.before_validation")
        assert controller.hits["fe.commit.before_validation"] == 3

    def test_unarmed_sites_pass_through(self):
        controller = ChaosController(seed=1).arm("sqldb.commit.after_install")
        with controller:
            crashpoint("fe.commit.before_validation")
        assert controller.hits["fe.commit.before_validation"] == 1
        assert controller.crashes == []

    def test_arm_rejects_unregistered_site(self):
        with pytest.raises(KeyError):
            ChaosController(seed=1).arm("no.such.site")

    def test_hit_rejects_unregistered_site(self):
        with ChaosController(seed=1):
            with pytest.raises(KeyError):
                crashpoint("no.such.site")

    def test_random_schedule_is_deterministic(self):
        def crash_indices(seed):
            controller = ChaosController(seed=seed, crash_rate=0.3)
            out = []
            with controller:
                for index in range(50):
                    try:
                        crashpoint("fe.commit.before_validation")
                    except SimulatedCrash:
                        out.append(index)
            return out

        first = crash_indices(42)
        assert first == crash_indices(42)
        assert first != crash_indices(43)
        assert first, "rate 0.3 over 50 hits must crash at least once"

    def test_only_one_controller_installs(self):
        with ChaosController(seed=1):
            with pytest.raises(RuntimeError):
                ChaosController(seed=2).install()

    def test_uninstall_clears_active(self):
        controller = ChaosController(seed=1)
        with controller:
            assert active_controller() is controller
        assert active_controller() is None

    def test_disarm(self):
        controller = ChaosController(seed=1).arm("fe.commit.before_validation")
        controller.disarm("fe.commit.before_validation")
        with controller:
            crashpoint("fe.commit.before_validation")
        assert controller.crashes == []

    def test_simulated_crash_is_not_a_polaris_error(self):
        from repro.common.errors import PolarisError

        assert not issubclass(SimulatedCrash, Exception)
        assert not issubclass(SimulatedCrash, PolarisError)
