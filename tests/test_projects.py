"""Project balance metrics: signed balances and their unbounded edges."""

import math

import pytest
from hypothesis import given, strategies as st

from crowdmetrics.events import build_snapshot, derive_profiles
from crowdmetrics.projects import (
    Unbounded,
    balance_in_computing,
    balance_in_recruitment,
    compute_project_balances,
    signed_balance,
)
from test_events import event_lists
from testkit import ev, volunteer_oracle

# Balance operands are volunteer counts or mean task counts: 0 when a side
# is empty, otherwise >= 1.
sides = st.one_of(
    st.just(0.0),
    st.integers(1, 10_000).map(float),
    st.floats(min_value=1.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)


class TestSignedBalance:
    def test_equal_sides_are_zero(self):
        assert signed_balance(3.0, 3.0) == 0.0
        assert signed_balance(0.0, 0.0) == 0.0

    def test_inherited_dominating_is_positive(self):
        assert signed_balance(6.0, 2.0) == 2.0

    def test_recruited_dominating_is_negative(self):
        assert signed_balance(2.0, 6.0) == -2.0

    def test_zero_side_is_unbounded_with_direction(self):
        assert signed_balance(5.0, 0.0) == Unbounded(1)
        assert signed_balance(0.0, 5.0) == Unbounded(-1)

    def test_unbounded_renders_with_sign(self):
        assert str(Unbounded(1)) == "unbounded+"
        assert str(Unbounded(-1)) == "unbounded-"
        with pytest.raises(ValueError):
            Unbounded(0)

    @given(sides, sides)
    def test_antisymmetry(self, a, b):
        forward = signed_balance(a, b)
        backward = signed_balance(b, a)
        if isinstance(forward, Unbounded):
            assert backward == Unbounded(-forward.sign)
        else:
            assert backward == -forward

    @given(sides, sides)
    def test_sign_and_finiteness(self, a, b):
        value = signed_balance(a, b)
        if isinstance(value, Unbounded):
            assert min(a, b) == 0.0 and a != b
            assert value.sign == (1 if a > b else -1)
        else:
            assert not math.isnan(value) and not math.isinf(value)
            if a > b:
                assert value > 0
            elif a < b:
                assert value < 0
            else:
                assert value == 0.0
            assert value == pytest.approx(
                (a - b) / min(a, b) if a != b else 0.0
            )


def project_with(inherited, recruited, task_counts=None):
    """Build a real ProjectProfile via the pipeline, not by hand."""
    events = []
    task = 0
    for volunteer in recruited:
        for _ in range((task_counts or {}).get(volunteer, 1)):
            task += 1
            events.append(ev(volunteer, f"t{task:03d}", "target", "2014-02-01T10:00"))
    for volunteer in inherited:
        task += 1
        events.append(ev(volunteer, f"t{task:03d}", "origin", "2014-01-01T10:00"))
        for _ in range((task_counts or {}).get(volunteer, 1)):
            task += 1
            events.append(ev(volunteer, f"t{task:03d}", "target", "2014-02-01T10:00"))
    _, projects = derive_profiles(build_snapshot(events))
    counts = {
        v: (task_counts or {}).get(v, 1) for v in projects["target"].volunteers
    }
    return projects["target"], counts


class TestProjectBalances:
    def test_recruitment_positive_when_inheriting_more(self):
        project, _ = project_with(inherited=["a", "b", "c", "d", "e", "f"], recruited=["g", "h"])
        assert balance_in_recruitment(project) == 2.0

    def test_recruitment_negative_when_recruiting_more(self):
        project, _ = project_with(inherited=["a"], recruited=["b", "c", "d"])
        assert balance_in_recruitment(project) == -2.0

    def test_recruitment_unbounded_when_no_recruits(self):
        project, _ = project_with(inherited=["a", "b"], recruited=[])
        assert balance_in_recruitment(project) == Unbounded(1)

    def test_recruitment_unbounded_when_only_recruits(self):
        project, _ = project_with(inherited=[], recruited=["a", "b"])
        assert balance_in_recruitment(project) == Unbounded(-1)

    def test_computing_compares_mean_task_counts(self):
        # inherited mean 4, recruited mean 2 -> (4-2)/2 = +1
        project, counts = project_with(
            inherited=["a"], recruited=["b", "c"], task_counts={"a": 4, "b": 3, "c": 1}
        )
        assert balance_in_computing(project) == 1.0

    def test_computing_unbounded_sides(self):
        project, counts = project_with(inherited=[], recruited=["a"])
        assert balance_in_computing(project) == Unbounded(-1)
        project, counts = project_with(inherited=["a"], recruited=[])
        assert balance_in_computing(project) == Unbounded(1)

    @given(event_lists())
    def test_full_computation_consistency(self, events):
        snap = build_snapshot(events)
        volunteers, projects = derive_profiles(snap)
        balances = compute_project_balances(projects)
        oracle = volunteer_oracle(snap.events)
        assert set(balances) == set(projects)
        for pid, balance in balances.items():
            project = projects[pid]
            assert balance.inherited_count == len(project.inherited)
            assert balance.recruited_count == len(project.recruited)
            assert balance.recruitment == signed_balance(
                len(project.inherited), len(project.recruited)
            )
            if balance.inherited_count:
                expected = sum(
                    volunteers[v].per_project_task_count[pid] for v in project.inherited
                ) / balance.inherited_count
                assert balance.mean_tasks_inherited == pytest.approx(expected)
            else:
                assert balance.mean_tasks_inherited is None
            # computing balance vs the oracle's own recount of each side
            by_side = {True: [], False: []}  # recruited here or not
            for fact in oracle.values():
                if pid in fact["tasks_by_project"]:
                    by_side[fact["first_project"] == pid].append(fact["tasks_by_project"][pid])
            recruited, inherited = by_side[True], by_side[False]
            mean_recruited = sum(recruited) / len(recruited) if recruited else None
            assert balance.mean_tasks_recruited == mean_recruited
            if not inherited:
                assert balance.computing == Unbounded(-1)
            elif not recruited:
                assert balance.computing == Unbounded(1)
            else:
                assert balance.computing == signed_balance(
                    sum(inherited) / len(inherited), mean_recruited
                )
            for value in (balance.recruitment, balance.computing):
                if not isinstance(value, Unbounded):
                    assert not math.isnan(value) and not math.isinf(value)
