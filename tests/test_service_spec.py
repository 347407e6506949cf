"""Fleet scenario model: session kinds, capacity budgets, deterministic resolve."""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError
from repro.service.spec import (
    ADMISSION_POLICIES,
    ARRIVAL_PROCESSES,
    CapacityModel,
    FleetSpec,
    SessionSpec,
)
from repro.workloads.arrivals import (
    poisson_arrival_slots,
    trace_arrival_slots,
    uniform_arrival_slots,
)


class TestArrivalGenerators:
    def test_poisson_sorted_deterministic(self):
        a = poisson_arrival_slots(50, 2.0, seed=3)
        b = poisson_arrival_slots(50, 2.0, seed=3)
        assert a == b
        assert a == sorted(a)
        assert all(s >= 0 for s in a)
        assert len(a) == 50

    def test_poisson_rate_scales_span(self):
        slow = poisson_arrival_slots(200, 0.5, seed=1)
        fast = poisson_arrival_slots(200, 5.0, seed=1)
        assert max(fast) < max(slow)

    def test_uniform_within_horizon(self):
        slots = uniform_arrival_slots(40, 10, seed=2)
        assert len(slots) == 40
        assert slots == sorted(slots)
        assert all(0 <= s < 10 for s in slots)

    def test_trace_cycles_past_span(self):
        slots = trace_arrival_slots(7, (0, 2, 5))
        assert slots == [0, 2, 5, 6, 8, 11, 12]

    def test_bad_arguments(self):
        with pytest.raises(ReproError):
            poisson_arrival_slots(0, 1.0)
        with pytest.raises(ReproError):
            poisson_arrival_slots(5, 0.0)
        with pytest.raises(ReproError):
            uniform_arrival_slots(5, 0)
        with pytest.raises(ReproError):
            trace_arrival_slots(5, ())
        with pytest.raises(ReproError):
            trace_arrival_slots(5, (3, -1))


class TestSessionSpec:
    def test_default_label(self):
        assert SessionSpec().label == "multi-tree/N31/d3"
        assert SessionSpec(label="gold").label == "gold"

    def test_gossip_rejected(self):
        with pytest.raises(ReproError):
            SessionSpec(scheme="gossip")

    def test_costs_without_repair(self):
        spec = SessionSpec(num_nodes=31, degree=3)
        assert spec.slack_factor == 1.0
        assert spec.fanout_cost() == 3.0
        assert spec.fanout_cost(2) == 2.0
        assert spec.backbone_cost() == 31.0

    def test_repair_provisioning_inflates_costs(self):
        spec = SessionSpec(num_nodes=20, degree=4, repair_epsilon=0.25)
        # ε=0.25 -> period 4 -> slack factor 4/3.
        assert spec.slack_factor == pytest.approx(4 / 3)
        assert spec.fanout_cost() == pytest.approx(4 * 4 / 3)
        assert spec.backbone_cost() == pytest.approx(20 * 4 / 3)

    def test_with_degree_relabels(self):
        degraded = SessionSpec(num_nodes=31, degree=4).with_degree(2)
        assert degraded.degree == 2
        assert degraded.label == "multi-tree/N31/d2"

    def test_validation(self):
        with pytest.raises(ReproError):
            SessionSpec(num_nodes=0)
        with pytest.raises(ReproError):
            SessionSpec(drop_rate=1.5)
        with pytest.raises(ReproError):
            SessionSpec(weight=0)


class TestCapacityModel:
    def test_fits_boundaries(self):
        cap = CapacityModel(source_fanout=10.0, backbone=100.0)
        assert cap.fits(7.0, 0.0, 3.0, 50.0)
        assert not cap.fits(8.0, 0.0, 3.0, 50.0)
        assert not cap.fits(0.0, 70.0, 3.0, 50.0)

    def test_budgets_must_be_positive(self):
        with pytest.raises(ReproError):
            CapacityModel(source_fanout=0)
        with pytest.raises(ReproError):
            CapacityModel(backbone=-1)


class TestFleetSpec:
    def test_resolve_is_deterministic(self):
        fleet = FleetSpec(num_sessions=30, churn_rate=0.3, seed=11)
        assert fleet.resolve() == fleet.resolve()
        assert fleet.resolve() != FleetSpec(
            num_sessions=30, churn_rate=0.3, seed=12
        ).resolve()

    def test_resolve_shape(self):
        kinds = (
            SessionSpec(num_nodes=15, weight=3.0),
            SessionSpec(scheme="chain", num_nodes=8, weight=1.0),
        )
        fleet = FleetSpec(sessions=kinds, num_sessions=200, seed=0)
        resolved = fleet.resolve()
        assert len(resolved) == 200
        assert [s.session_id for s in resolved] == list(range(200))
        arrivals = [s.arrival_slot for s in resolved]
        assert arrivals == sorted(arrivals)
        # Weighted kind mix: the 3x kind should dominate.
        heavy = sum(1 for s in resolved if s.spec is kinds[0])
        assert heavy > 100

    def test_churn_rate_marks_leavers(self):
        resolved = FleetSpec(num_sessions=100, churn_rate=0.4, seed=5).resolve()
        leavers = [s for s in resolved if s.leave_fraction is not None]
        assert 20 < len(leavers) < 60
        assert all(0.5 <= s.leave_fraction <= 0.95 for s in leavers)
        assert all(
            s.leave_fraction is None
            for s in FleetSpec(num_sessions=50).resolve()
        )

    def test_trace_arrivals(self):
        fleet = FleetSpec(
            num_sessions=4, arrival="trace", arrival_slots=(1, 4, 9)
        )
        assert [s.arrival_slot for s in fleet.resolve()] == [1, 4, 9, 11]

    def test_describe_names_the_mix(self):
        text = FleetSpec(num_sessions=7, policy="degrade").describe()
        assert "7 sessions" in text
        assert "degrade" in text
        assert "multi-tree/N31/d3" in text

    def test_validation(self):
        with pytest.raises(ReproError):
            FleetSpec(sessions=())
        with pytest.raises(ReproError):
            FleetSpec(arrival="flash")
        with pytest.raises(ReproError):
            FleetSpec(arrival="trace")  # no slots given
        with pytest.raises(ReproError):
            FleetSpec(policy="drop")
        with pytest.raises(ReproError):
            FleetSpec(churn_rate=2.0)
        with pytest.raises(ReproError):
            FleetSpec(min_degree=1)

    @pytest.mark.parametrize(
        ("build", "field"),
        [
            (lambda: FleetSpec(arrival_rate=float("nan")), "arrival_rate"),
            (lambda: FleetSpec(arrival_rate=float("inf")), "arrival_rate"),
            (lambda: SessionSpec(weight=float("nan")), "weight"),
            (lambda: FleetSpec(arrival="uniform", horizon=0), "horizon"),
        ],
        ids=["rate-nan", "rate-inf", "weight-nan", "uniform-horizon-0"],
    )
    def test_bad_numbers_fail_at_construction(self, build, field):
        # Each slips past a plain range check (NaN compares false, inf is
        # > 0, horizon=0 is falsy), so each needs its own typed error.
        with pytest.raises(ReproError, match=field):
            build()

    def test_constant_vocabularies(self):
        assert ARRIVAL_PROCESSES == ("poisson", "uniform", "trace")
        assert ADMISSION_POLICIES == ("reject", "queue", "degrade")
