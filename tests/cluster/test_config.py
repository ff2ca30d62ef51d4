"""Unit tests for ClusterConfig."""

import pytest

from repro.cluster.config import ClusterConfig

NAN = float("nan")
INF = float("inf")


class TestValidation:
    def test_totals(self):
        cfg = ClusterConfig(num_nodes=10, map_slots_per_node=2, reduce_slots_per_node=1)
        assert cfg.total_map_slots == 20
        assert cfg.total_reduce_slots == 10
        assert cfg.total_slots == 30

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)

    def test_all_zero_slots_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=1, map_slots_per_node=0, reduce_slots_per_node=0)

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=1, map_slots_per_node=-1)

    def test_bad_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=1, heartbeat_interval=0.0)

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=1, submit_task_duration=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("heartbeat_interval", NAN),
            ("submit_task_duration", NAN),
            ("oozie_poll_interval", NAN),
            ("submit_task_duration", INF),
            ("oozie_poll_interval", INF),
        ],
    )
    def test_nan_and_infinite_durations_rejected(self, field, value):
        # Every comparison with NaN is false, so range checks written as
        # "reject if out of range" wave it through.
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=1, **{field: value})

    def test_infinite_heartbeat_interval_allowed(self):
        # An infinite interval disables the periodic loop (eager rounds
        # alone drive assignment).
        assert ClusterConfig(num_nodes=1, heartbeat_interval=INF).heartbeat_interval == INF


class TestFactories:
    def test_from_total_slots(self):
        cfg = ClusterConfig.from_total_slots(200, 200, nodes=40)
        assert cfg.num_nodes == 40
        assert cfg.total_map_slots == 200
        assert cfg.total_reduce_slots == 200

    def test_from_total_slots_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ClusterConfig.from_total_slots(201, 200, nodes=40)

    def test_paper_testbed(self):
        cfg = ClusterConfig.paper_testbed()
        assert cfg.num_nodes == 80
        assert cfg.map_slots_per_node == 2
        assert cfg.reduce_slots_per_node == 1
