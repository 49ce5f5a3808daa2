"""Fixture tests for the repro.analysis lint rules.

Every shipped rule gets a true-positive snippet (must be flagged) and a
true-negative snippet (must stay clean), plus coverage of the suppression
machinery: honored suppressions, unknown rule names, and strict-mode
useless-suppression reporting.
"""

import textwrap

import pytest

from repro.analysis import all_rules, get_rule, lint_source
from repro.analysis.rules import SHIPPED_RULES


def run(source, rule_name, relpath="src/repro/fe/sample.py", strict=False):
    """Lint ``source`` with a single rule; returns the findings."""
    return lint_source(
        textwrap.dedent(source),
        relpath=relpath,
        rules=[get_rule(rule_name)],
        strict=strict,
    )


def test_shipped_rules_all_registered():
    names = [rule.name for rule in all_rules()]
    assert names == sorted(SHIPPED_RULES) and len(names) == 7


def test_every_rule_has_name_and_description():
    for rule in all_rules():
        assert rule.name and rule.description


# -- wallclock-purity ----------------------------------------------------------


class TestWallclockPurity:
    def test_flags_time_time(self):
        findings = run(
            """\
            import time

            def stamp():
                return time.time()
            """,
            "wallclock-purity",
        )
        assert [f.rule for f in findings] == ["wallclock-purity"]
        assert "time.time" in findings[0].message

    def test_flags_datetime_now_and_from_import(self):
        findings = run(
            """\
            import datetime
            from time import sleep

            def stamp():
                return datetime.datetime.now()
            """,
            "wallclock-purity",
        )
        assert len(findings) == 2  # the import and the call

    def test_clean_simulated_clock_use(self):
        findings = run(
            """\
            def stamp(clock):
                return clock.now()
            """,
            "wallclock-purity",
        )
        assert findings == []

    def test_no_exemption_for_clock_module_or_telemetry(self):
        source = """\
            import time

            def bridge():
                return time.time()
            """
        for relpath in (
            "src/repro/common/clock.py",
            "src/repro/telemetry/exporters.py",
        ):
            findings = run(source, "wallclock-purity", relpath=relpath)
            assert [f.rule for f in findings] == ["wallclock-purity"], relpath


# -- seeded-randomness ---------------------------------------------------------


class TestSeededRandomness:
    def test_flags_module_level_random_calls(self):
        findings = run(
            """\
            import random

            def pick():
                return random.randint(0, 10)
            """,
            "seeded-randomness",
        )
        assert [f.rule for f in findings] == ["seeded-randomness"]

    def test_flags_unseeded_random_instance(self):
        findings = run(
            """\
            import random

            rng = random.Random()
            """,
            "seeded-randomness",
        )
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_flags_from_random_import_function(self):
        findings = run(
            """\
            from random import randint
            """,
            "seeded-randomness",
        )
        assert len(findings) == 1

    def test_flags_unseeded_numpy_default_rng(self):
        findings = run(
            """\
            import numpy as np

            rng = np.random.default_rng()
            """,
            "seeded-randomness",
        )
        assert len(findings) == 1

    def test_clean_seeded_instances(self):
        findings = run(
            """\
            import random
            import numpy as np
            from random import Random

            a = random.Random(42)
            b = Random(7)
            c = np.random.default_rng(0)
            """,
            "seeded-randomness",
        )
        assert findings == []


# -- frozen-mutation -----------------------------------------------------------


class TestFrozenMutation:
    def test_flags_attribute_assignment_on_inferred_instance(self):
        findings = run(
            """\
            snap = TableSnapshot(table_id=1)
            snap.sequence_id = 99
            """,
            "frozen-mutation",
        )
        assert len(findings) == 1
        assert "TableSnapshot.sequence_id" in findings[0].message

    def test_flags_annotated_parameter_mutation(self):
        findings = run(
            """\
            def poke(info: DataFileInfo):
                info.rows += 1
            """,
            "frozen-mutation",
        )
        assert len(findings) == 1

    def test_flags_object_setattr_bypass(self):
        findings = run(
            """\
            def poke(info: DataFileInfo):
                object.__setattr__(info, "path", "x")
            """,
            "frozen-mutation",
        )
        assert len(findings) == 1

    def test_allows_self_setattr_in_init(self):
        findings = run(
            """\
            class PageFile:
                def __init__(self, rows):
                    object.__setattr__(self, "rows", rows)
            """,
            "frozen-mutation",
        )
        assert findings == []

    def test_flags_self_setattr_outside_init(self):
        findings = run(
            """\
            class PageFile:
                def grow(self, rows):
                    object.__setattr__(self, "rows", rows)
            """,
            "frozen-mutation",
        )
        assert len(findings) == 1

    def test_clean_replace_style_copy(self):
        findings = run(
            """\
            import dataclasses

            def bump(snap: TableSnapshot):
                return dataclasses.replace(snap, sequence_id=snap.sequence_id + 1)
            """,
            "frozen-mutation",
        )
        assert findings == []


# -- span-discipline -----------------------------------------------------------


class TestSpanDiscipline:
    def test_flags_bare_span_call(self):
        findings = run(
            """\
            def work(tel):
                tel.span("query")
            """,
            "span-discipline",
        )
        assert len(findings) == 1

    def test_clean_with_statement_and_explicit_pair(self):
        findings = run(
            """\
            def work(tel):
                with tel.span("query"):
                    pass
                s = tel.start_span("long")
                tel.end_span(s)
            """,
            "span-discipline",
        )
        assert findings == []

    def test_exempt_in_telemetry(self):
        findings = run(
            """\
            def span(self, name):
                return self.tracer.span(name)
            """,
            "span-discipline",
            relpath="src/repro/telemetry/facade.py",
        )
        assert findings == []


# -- no-swallowed-errors -------------------------------------------------------


class TestNoSwallowedErrors:
    def test_flags_bare_except(self):
        findings = run(
            """\
            def f():
                try:
                    g()
                except:
                    pass
            """,
            "no-swallowed-errors",
        )
        assert len(findings) == 1
        assert "bare except" in findings[0].message

    def test_flags_broad_except_without_reraise(self):
        findings = run(
            """\
            def f(log):
                try:
                    g()
                except Exception as exc:
                    log.warning(exc)
            """,
            "no-swallowed-errors",
        )
        assert len(findings) == 1

    def test_clean_broad_except_with_reraise(self):
        findings = run(
            """\
            def f(log):
                try:
                    g()
                except Exception as exc:
                    log.warning(exc)
                    raise
            """,
            "no-swallowed-errors",
        )
        assert findings == []

    def test_clean_specific_exception(self):
        findings = run(
            """\
            def f():
                try:
                    g()
                except KeyError:
                    return None
            """,
            "no-swallowed-errors",
        )
        assert findings == []


# -- docstring-coverage --------------------------------------------------------


class TestDocstringCoverage:
    def test_flags_undocumented_public_items(self):
        findings = run(
            """\
            class Widget:
                def run(self):
                    pass

            def helper():
                pass
            """,
            "docstring-coverage",
        )
        assert len(findings) == 4  # module, class, method, function

    def test_clean_documented_and_private(self):
        findings = run(
            '''\
            """Module docstring."""

            class Widget:
                """A widget."""

                def run(self):
                    """Run it."""

                def _internal(self):
                    pass

            def _private_helper():
                pass
            ''',
            "docstring-coverage",
        )
        assert findings == []

    def test_property_setter_exempt(self):
        findings = run(
            '''\
            """Module docstring."""

            class Widget:
                """A widget."""

                @property
                def size(self):
                    """The size."""
                    return self._size

                @size.setter
                def size(self, value):
                    self._size = value
            ''',
            "docstring-coverage",
        )
        assert findings == []


# -- suppressions --------------------------------------------------------------


class TestSuppressions:
    def test_named_suppression_drops_finding(self):
        findings = run(
            """\
            import time

            def stamp():
                return time.time()  # repro: ignore[wallclock-purity]
            """,
            "wallclock-purity",
        )
        assert findings == []

    def test_bare_suppression_drops_all_rules(self):
        findings = run(
            """\
            import time

            def stamp():
                return time.time()  # repro: ignore
            """,
            "wallclock-purity",
        )
        assert findings == []

    def test_suppression_for_other_rule_does_not_apply(self):
        findings = run(
            """\
            import time

            def stamp():
                return time.time()  # repro: ignore[span-discipline]
            """,
            "wallclock-purity",
        )
        assert [f.rule for f in findings] == ["wallclock-purity"]

    def test_unknown_rule_name_is_reported(self):
        findings = run(
            """\
            x = 1  # repro: ignore[no-such-rule]
            """,
            "wallclock-purity",
        )
        assert [f.rule for f in findings] == ["bad-suppression"]
        assert "no-such-rule" in findings[0].message

    def test_suppression_in_docstring_is_inert(self):
        findings = run(
            '''\
            """Mentions # repro: ignore[wallclock-purity] in prose."""

            import time

            def stamp():
                return time.time()
            '''
            ,
            "wallclock-purity",
        )
        assert [f.rule for f in findings] == ["wallclock-purity"]

    def test_strict_reports_useless_suppression(self):
        findings = run(
            """\
            x = 1  # repro: ignore[wallclock-purity]
            """,
            "wallclock-purity",
            strict=True,
        )
        assert [f.rule for f in findings] == ["useless-suppression"]

    def test_non_strict_tolerates_useless_suppression(self):
        findings = run(
            """\
            x = 1  # repro: ignore[wallclock-purity]
            """,
            "wallclock-purity",
        )
        assert findings == []


def test_get_rule_unknown_name_raises_with_hint():
    with pytest.raises(KeyError, match="known rules"):
        get_rule("definitely-not-a-rule")


def test_finding_render_format():
    findings = run(
        """\
        import time

        time.time()
        """,
        "wallclock-purity",
        relpath="src/repro/fe/x.py",
    )
    assert findings[0].render().startswith(
        "src/repro/fe/x.py:3: wallclock-purity: "
    )


# -- metric-naming -------------------------------------------------------------


class TestMetricNaming:
    def test_clean_registered_span_and_prefix(self):
        findings = run(
            """\
            def trace(tel, kind):
                with tel.span("txn.commit", "txn"):
                    pass
                with tel.span("sql." + kind, "sql"):
                    pass
                tel.add_event("retry", attempt=1)
            """,
            "metric-naming",
        )
        assert findings == []

    def test_flags_unregistered_span_name(self):
        findings = run(
            """\
            def trace(tel):
                with tel.span("txn.comit", "txn"):
                    pass
            """,
            "metric-naming",
        )
        assert "SPAN_NAMES" in findings[0].message

    def test_flags_unregistered_span_prefix(self):
        findings = run(
            """\
            def trace(tel, kind):
                with tel.span("mystery." + kind, "sql"):
                    pass
            """,
            "metric-naming",
        )
        assert "SPAN_PREFIXES" in findings[0].message

    def test_flags_dynamic_span_name(self):
        findings = run(
            """\
            def trace(tel, label):
                span = tel.start_span(label, "dcp.task")
                return span
            """,
            "metric-naming",
        )
        assert "dynamic" in findings[0].message

    def test_span_half_exempt_inside_telemetry(self):
        findings = run(
            """\
            def forward(tracer, name):
                return tracer.start_span(name, "x")
            """,
            "metric-naming",
            relpath="src/repro/telemetry/facade2.py",
        )
        assert findings == []

    def test_registry_names_are_well_formed(self):
        from repro.telemetry.names import (
            METRIC_NAMES,
            SPAN_NAMES,
            is_well_formed,
        )

        for name in list(METRIC_NAMES) + list(SPAN_NAMES):
            assert is_well_formed(name), name
