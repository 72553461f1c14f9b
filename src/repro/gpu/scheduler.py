"""Thread-block scheduling: the reverse-engineered Volta scheduler + a
greedy discrete-event makespan simulation.

Section V-C1 of the paper reverse engineers the Volta thread-block scheduler:
blocks in the first wave land on SM

    sm_idx = 2 * (block_idx mod 40) + (block_idx / 40) mod 2

(for an 80-SM part; ``block_idx = blockIdx.x + blockIdx.y * gridDim.x``), and
after the first wave blocks are dispatched in ``block_idx`` order as
resources free up. The row-swizzle load-balancing heuristics are designed
around exactly this behaviour, so the simulator reproduces it: the first wave
is placed by the closed-form mapping and the remainder by an online greedy
("first free execution slot gets the next block") discrete-event simulation.

Two implementations of the greedy remainder are provided:

- :func:`simulate_schedule` — the production path. The first wave is placed
  in one vectorized step and later blocks are assigned in *rounds*: slots
  are ordered by ``(free time, slot id)`` with one stable argsort, and the
  longest prefix of pending blocks whose greedy choice is provably the
  next untouched slot is committed in bulk. Each accepted block performs
  the same two-operand additions as the event loop, in the same order, so
  the results are bitwise identical to the oracle.
- :func:`simulate_schedule_reference` — the original per-block ``heapq``
  event loop, kept as the equivalence oracle for tests and as executable
  documentation of the hardware behaviour being modelled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec


def volta_first_wave_sm(block_idx: np.ndarray | int, device: DeviceSpec) -> np.ndarray:
    """SM index receiving ``block_idx`` in the first wave (Volta mapping).

    Vectorized over ``block_idx``. Only meaningful for indices smaller than
    the first-wave size (``num_sms * blocks_per_sm``); larger indices wrap
    the same round-robin pattern, matching observed hardware behaviour.
    """
    idx = np.asarray(block_idx, dtype=np.int64)
    if np.any(idx < 0):
        raise ValueError("block indices must be non-negative")
    row = device.scheduler_row_width
    return (2 * (idx % row) + (idx // row) % 2) % device.num_sms


#: Beyond this many blocks per slot the discrete-event schedule is replaced
#: by its converged work-conserving bound (greedy self-balances at depth).
SATURATION_ROUNDS = 32


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one launch's blocks onto execution slots."""

    makespan: float
    #: Busy time accumulated by each slot, shape ``(n_slots,)``, float64.
    slot_busy: np.ndarray
    #: Finish time of each block in issue order, shape ``(n_blocks,)``, float64.
    block_finish: np.ndarray

    @property
    def imbalance(self) -> float:
        """Makespan divided by the perfectly-balanced lower bound (>= 1)."""
        ideal = float(np.sum(self.slot_busy)) / len(self.slot_busy)
        if ideal <= 0.0:
            return 1.0
        return self.makespan / ideal


def _validated_durations(durations: np.ndarray) -> np.ndarray:
    durations = np.ascontiguousarray(durations, dtype=np.float64)
    if durations.ndim != 1:
        raise ValueError("durations must be a 1-D array")
    if np.any(durations < 0):
        raise ValueError("durations must be non-negative")
    return durations


def _saturated_result(durations: np.ndarray, n_slots: int) -> ScheduleResult:
    """Deeply-saturated launch: every slot processes many blocks, so the
    greedy schedule self-balances and the makespan converges to the
    work-conserving bound plus a sub-round tail."""
    total = float(durations.sum())
    tail = 0.5 * (float(durations.mean()) + float(durations.max()))
    makespan = total / n_slots + tail
    slot_busy = np.full(n_slots, total / n_slots, dtype=np.float64)
    block_finish = np.empty(len(durations), dtype=np.float64)
    np.cumsum(durations, out=block_finish)
    block_finish /= n_slots
    return ScheduleResult(makespan, slot_busy, block_finish)


def _uniform_result(durations: np.ndarray, n_slots: int) -> ScheduleResult:
    """Uniform blocks: the greedy schedule degenerates to round-robin
    layers; compute it in closed form (hot path for balanced kernels)."""
    n_blocks = len(durations)
    d = float(durations[0])
    per_slot = np.full(n_slots, n_blocks // n_slots, dtype=np.int64)
    per_slot[: n_blocks % n_slots] += 1
    block_finish = ((np.arange(n_blocks) // n_slots + 1) * d).astype(np.float64)
    slot_busy = per_slot.astype(np.float64) * d
    return ScheduleResult(float(block_finish[-1]), slot_busy, block_finish)


def _first_wave_slots(
    n_blocks: int, device: DeviceSpec, blocks_per_sm: int
) -> np.ndarray:
    """Slot of each first-wave block: round-robin over SMs via the Volta
    mapping, filling each SM's slots one layer at a time."""
    first_wave = min(n_blocks, device.num_sms * blocks_per_sm)
    idx = np.arange(first_wave)
    sm = volta_first_wave_sm(idx % device.num_sms, device)
    layer = idx // device.num_sms
    return sm * blocks_per_sm + layer


def simulate_schedule(
    durations: np.ndarray,
    device: DeviceSpec,
    blocks_per_sm: int,
) -> ScheduleResult:
    """Greedy discrete-event schedule of blocks onto SM execution slots.

    Each SM hosts ``blocks_per_sm`` concurrent block slots. The first wave is
    placed with the Volta closed-form mapping; every later block is issued,
    in order, to the slot that frees first (ties broken by slot id, matching
    the in-order resource-driven dispatch the paper describes).

    The remainder is computed with a vectorized round-based simulation that
    is bitwise-equivalent to the per-block event loop kept in
    :func:`simulate_schedule_reference`.
    """
    durations = _validated_durations(durations)
    n_blocks = len(durations)
    n_slots = device.num_sms * blocks_per_sm
    if n_blocks == 0:
        return ScheduleResult(
            0.0, np.zeros(n_slots), np.zeros(0, dtype=np.float64)
        )
    if n_blocks > SATURATION_ROUNDS * n_slots:
        return _saturated_result(durations, n_slots)
    if durations.max() == durations.min():
        return _uniform_result(durations, n_slots)

    slots0 = _first_wave_slots(n_blocks, device, blocks_per_sm)
    first_wave = len(slots0)
    d0 = durations[:first_wave]

    slot_busy = np.zeros(n_slots)
    block_finish = np.empty(n_blocks, dtype=np.float64)
    block_finish[:first_wave] = d0

    # The event loop's state is one heap *entry per first-wave block*, not
    # per slot: if the Volta mapping sends two first-wave blocks to one slot
    # the entries act as independent capacity, and a slot the mapping never
    # touches never participates. For real parts (even SM counts) the
    # mapping is a permutation of the slots, so entries == slots and the
    # state can be indexed by slot id directly — the fast path below.
    counts = np.bincount(slots0, minlength=n_slots)
    permutation = first_wave == n_slots and int(counts.max()) <= 1

    # Round-based greedy: order entries once per round by (free time, slot
    # id) — the heap's lexicographic tie-break — then commit the longest
    # prefix of pending blocks for which the greedy choice is certain.
    # Block i of a round may take the i-th earliest entry only if that entry
    # frees *strictly before* every finish time created earlier in the
    # round (otherwise a just-refilled entry would win, or the tie-break
    # needs the full ordering — both resolved by the next round's sort).
    # Each accepted block performs the identical `free + d` and `busy += d`
    # operations as the event loop, in the same order, so the results match
    # the oracle bitwise, not just approximately.
    if permutation:
        slot_free = np.zeros(n_slots)
        slot_free[slots0] = d0
        slot_busy[slots0] = d0
        b = first_wave
        while b < n_blocks:
            # Entry id == slot id here, so a stable argsort of the free
            # times alone reproduces the (free, slot) ordering.
            order = np.argsort(slot_free, kind="stable")
            free = np.take(slot_free, order)
            take = min(n_slots, n_blocks - b)
            d = durations[b : b + take]
            finish = free[:take] + d
            # running_min[i] = min finish created by blocks 0..i of the
            # round; block i+1 is undecided unless its entry frees earlier.
            running_min = np.minimum.accumulate(finish)
            undecided = free[1:take] >= running_min[: take - 1]
            first = int(undecided.argmax()) if take > 1 else 0
            k = first + 1 if take > 1 and undecided[first] else take
            sel = order[:k]
            slot_free[sel] = finish[:k]
            slot_busy[sel] += d[:k]
            block_finish[b : b + k] = finish[:k]
            b += k
    else:
        entry_free = d0.copy()
        entry_slot = slots0.astype(np.int64)
        np.add.at(slot_busy, entry_slot, d0)
        b = first_wave
        while b < n_blocks:
            order = np.lexsort((entry_slot, entry_free))
            free = np.take(entry_free, order)
            take = min(first_wave, n_blocks - b)
            d = durations[b : b + take]
            finish = free[:take] + d
            running_min = np.minimum.accumulate(finish)
            undecided = free[1:take] >= running_min[: take - 1]
            first = int(undecided.argmax()) if take > 1 else 0
            k = first + 1 if take > 1 and undecided[first] else take
            sel = order[:k]
            entry_free[sel] = finish[:k]
            # np.add.at is unbuffered: duplicate slots accumulate in block
            # order, exactly like the event loop's per-block `+=`.
            np.add.at(slot_busy, entry_slot[sel], d[:k])
            block_finish[b : b + k] = finish[:k]
            b += k

    return ScheduleResult(float(np.max(block_finish)), slot_busy, block_finish)


def simulate_schedule_reference(
    durations: np.ndarray,
    device: DeviceSpec,
    blocks_per_sm: int,
) -> ScheduleResult:
    """The original per-block ``heapq`` event loop (equivalence oracle).

    Shares the empty/saturated/uniform closed forms with
    :func:`simulate_schedule` — the two differ only in how the greedy
    remainder after the first wave is computed.
    """
    durations = _validated_durations(durations)
    n_blocks = len(durations)
    n_slots = device.num_sms * blocks_per_sm
    if n_blocks == 0:
        return ScheduleResult(
            0.0, np.zeros(n_slots), np.zeros(0, dtype=np.float64)
        )
    if n_blocks > SATURATION_ROUNDS * n_slots:
        return _saturated_result(durations, n_slots)
    if durations.max() == durations.min():
        return _uniform_result(durations, n_slots)

    slots0 = _first_wave_slots(n_blocks, device, blocks_per_sm)
    first_wave = len(slots0)
    slot_busy = np.zeros(n_slots)
    block_finish = np.zeros(n_blocks, dtype=np.float64)

    heap: list[tuple[float, int]] = []
    for b in range(first_wave):
        s = int(slots0[b])
        finish = durations[b]
        slot_busy[s] += durations[b]
        block_finish[b] = finish
        heapq.heappush(heap, (finish, s))

    for b in range(first_wave, n_blocks):
        free_at, s = heapq.heappop(heap)
        finish = free_at + durations[b]
        slot_busy[s] += durations[b]
        block_finish[b] = finish
        heapq.heappush(heap, (finish, s))

    makespan = float(np.max(block_finish))
    return ScheduleResult(makespan, slot_busy, block_finish)
