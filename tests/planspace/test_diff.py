"""Tests for plan-space diffing."""

import pytest

from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.diff import diff_spaces
from repro.planspace.implicit import ImplicitPlanSpace

SQL = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)


def _space(catalog, **impl_kwargs):
    options = OptimizerOptions(
        allow_cross_products=False,
        implementation=ImplementationConfig(**impl_kwargs),
    )
    return ImplicitPlanSpace.from_sql(catalog, SQL, options=options)


class TestIdenticalSpaces:
    def test_same_configuration_identical(self, catalog):
        diff = diff_spaces(_space(catalog), _space(catalog))
        assert diff.identical
        assert "identical" in diff.render()


class TestConfigurationChanges:
    def test_removed_implementation_detected(self, catalog):
        baseline = _space(catalog)
        candidate = _space(catalog, enable_merge_join=False)
        diff = diff_spaces(baseline, candidate)
        assert not diff.identical
        assert diff.candidate_total < diff.baseline_total
        assert any("MergeJoin" in op for op in diff.removed_operators)

    def test_added_implementation_detected(self, catalog):
        baseline = _space(catalog)
        candidate = _space(catalog, enable_index_nl_join=True)
        diff = diff_spaces(baseline, candidate)
        assert any("IndexNLJoin" in op for op in diff.added_operators)
        assert diff.candidate_total > diff.baseline_total

    def test_count_changes_reported(self, catalog):
        baseline = _space(catalog)
        candidate = _space(catalog, enable_index_scans=False)
        diff = diff_spaces(baseline, candidate)
        # Scans disappear; surviving joins root fewer plans.
        assert diff.removed_operators
        assert diff.count_changes

    def test_render_is_informative(self, catalog):
        baseline = _space(catalog)
        candidate = _space(catalog, enable_merge_join=False)
        text = diff_spaces(baseline, candidate).render()
        assert "->" in text
        assert "removed" in text

    def test_symmetric(self, catalog):
        a = _space(catalog)
        b = _space(catalog, enable_merge_join=False)
        forward = diff_spaces(a, b)
        backward = diff_spaces(b, a)
        assert len(forward.removed_operators) == len(backward.added_operators)
