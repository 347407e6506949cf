"""Vectorized batch replay: one NumPy pass evaluates many sessions.

The fleet runner's schedule cache means almost every session in a large
fleet replays the *same* compiled timetable under a different
``(seed, drop_rate)``.  The scalar kernel (:mod:`repro.exec.replay`) walks
the flat arrays one session at a time in Python; this module re-expresses
the identical semantics as NumPy column operations so one pass scores a
whole batch:

* each call replays a **prefix-pruned view** of the schedule, lowered
  into NumPy columns (sender and receiver cells in ``(packet, node)`` flat
  index space, arrival slots, per-slot bounds): only the transmissions of
  packets below ``min(num_packets, compiled packets)``.  Pruning is exact.
  The hold check and the earliest-arrival min-fold both key on
  ``(node, packet)``, so a transmission of packet ``p`` can only change the
  holdings of packet ``p``; packets past the scored prefix never reach a
  metric.  At N=31/P=8 this drops 573 of 821 transmissions, at N=1023/P=16
  30,145 of 46,513.  Views are built once per process and cached on the
  :class:`~repro.exec.compiler.CompiledSchedule`, one per prefix length, so
  the cache stays bounded by the compiled packet count;
* holdings are stored **session-minor**: one ``((rows + 1) * packets, B)``
  matrix of earliest arrival slots (``INF`` = never held), so every per-slot
  gather and scatter touches whole contiguous rows.  The kernel walks the
  horizon slot by slot, applying the scalar kernel's hold check, drop mask
  and min-fold to all ``B`` sessions at once.  Per-slot processing is exact
  because a transmission sent at slot ``s`` arrives at ``s`` or later while
  forwarding requires an arrival strictly *before* ``s`` — deliveries within
  a slot can never enable sends in that slot;
* drop masks are drawn from one private ``default_rng(seed)`` stream per
  session (:func:`bernoulli_masks`), up to the view's last kept
  transmission and no further; the kernel then selects the view's columns
  by their original flat index and stores them transposed, ``(kept, B)``.
  ``Generator.random`` spends one stream output per double, so a drawn
  prefix equals the same prefix of a full-length draw, and every session's
  mask is unchanged by pruning;
* metrics reduce straight to per-session :class:`BatchMetrics` columns
  (residual, goodput, delay/buffer aggregates, optional per-node columns)
  without materializing per-session arrival dicts.  The buffer peak is a
  count rather than a sweep: occupancy only rises at an arrival, so the
  peak is the largest number of available packets ``q`` with
  ``arrival_q <= arrival_p <= consume_q`` over available packets ``p``.
  An available packet is consumed at ``start + q - 1`` (the start is never
  earlier than ``arrival_q - q + 1``), so the count runs one packet ``q``
  at a time into a ``uint8`` counter per ``(packet, node, session)`` cell
  (``uint16`` once the prefix reaches 256 packets).  Missing packets count
  on neither side, whatever the start (it is negative when every packet a
  node holds arrived two or more slots before its number);
* the holdings, the view's arrival column and the start/consume slots are
  stored **narrow**: ``int16`` when the view's largest kept arrival plus
  the prefix length stays below ``2**15 - 1`` (the ``int16`` "never
  arrived" sentinel), else ``int32``.  One code path serves both; the dtype
  comes from the view's arrival column.  The output columns keep their
  dtypes;
* **loss-free sessions replay once per schedule and horizon**: a rate-0
  session draws no mask and never reads its seed, so every rate-0 session
  of a view scores the same at one horizon.  The first call replays one
  such column and caches its per-node scores, read-only, on the pruned
  view under the horizon (:attr:`_Pruned.lossless`, so at most one entry
  per horizon per view); every call broadcasts them into all of its rate-0
  output rows.  Lossy sessions are chunked as usual.

Results are slot-for-slot identical to
:func:`~repro.exec.replay.replay_point` — including the loss model: a
dropped index never delivers, and a transmission whose sender does not hold
its packet at send time is a silent no-op (the paper's zero-slack
permanent-loss behavior).  The identity is property-tested against both the
scalar path and the engine in ``tests/test_exec_properties.py``.

Memory is bounded: :func:`replay_batch` internally splits the lossy
sessions into chunks of ``element_budget // per_session`` sessions, where
``per_session`` is the larger of a session's pruned holdings
(``(rows + 1) x packets``) and its drawn mask-row prefix.  Every array a
chunk allocates — the masks, the holdings, and the score's
``(packets, rows x B)`` counter and comparison temporaries — therefore
holds at most ``element_budget`` elements, so arbitrarily large batches run
in bounded kernel memory (the per-session output columns still scale with
the batch, of course).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any, Union

import numpy as np
import numpy.typing as npt

from repro.core.errors import ReproError
from repro.core.metrics import RepairMetrics
from repro.exec.compiler import CompiledSchedule
from repro.obs.registry import active_registry

__all__ = [
    "BatchMetrics",
    "bernoulli_masks",
    "check_seed",
    "check_seeds",
    "replay_batch",
    "scalar_rate",
    "spawn_seeds",
]

#: Accepted per-session seed types (``default_rng`` accepts both).
Seed = Union[int, np.random.SeedSequence]

#: Per-node ``(startup_delays, buffer_peaks, available_counts)`` of a batch,
#: each ``(rows, B)``: what :func:`_score` returns.
_Scores = tuple[
    npt.NDArray[np.signedinteger[Any]],
    npt.NDArray[np.unsignedinteger[Any]],
    npt.NDArray[np.unsignedinteger[Any]],
]

#: Default working-set budget per kernel chunk, in array elements
#: (~64 MB of int32).  The chunk batch size is derived from it.
DEFAULT_ELEMENT_BUDGET = 16_000_000


def scalar_rate(value: object) -> float | None:
    """``value`` as a Python ``float`` when it is one real number — a Python
    or NumPy scalar, or a 0-d array — else ``None``."""
    if isinstance(value, Real) or (
        isinstance(value, np.ndarray) and value.ndim == 0 and value.dtype.kind in "biuf"
    ):
        return float(value)
    return None


def check_seed(seed: object, name: str) -> None:
    """Raise a :class:`ReproError` naming ``name`` unless ``seed`` is an
    integer ``>= 0`` (``bool`` excluded) or a ``SeedSequence`` — the seeds
    ``default_rng`` accepts as one session's stream."""
    if type(seed) is int and seed >= 0:  # the common case, without the ABC checks
        return
    if isinstance(seed, np.random.SeedSequence):
        return
    if isinstance(seed, Integral) and not isinstance(seed, bool) and seed >= 0:
        return
    raise ReproError(f"{name} must be an int >= 0 or a SeedSequence, got {seed!r}")


def check_seeds(seeds: Sequence[object]) -> None:
    """:func:`check_seed` on every seed, naming the first bad one ``seeds[i]``."""
    for i, seed in enumerate(seeds):
        check_seed(seed, f"seeds[{i}]")


def spawn_seeds(seed: int, n: int) -> tuple[np.random.SeedSequence, ...]:
    """``n`` statistically independent per-session seed sequences.

    Derived via ``np.random.SeedSequence(seed).spawn(n)``, so session ``i``
    of master seed ``s`` always gets the same stream — whether its mask is
    drawn solo, inside any batch, or on any worker.
    """
    if n < 0:
        raise ReproError(f"cannot spawn {n} seeds")
    return tuple(np.random.SeedSequence(seed).spawn(n))


def bernoulli_masks(
    schedule: CompiledSchedule,
    drop_rates: Sequence[float],
    seeds: Sequence[Seed],
    *,
    length: int | None = None,
) -> npt.NDArray[np.bool_] | None:
    """Stack per-session drop masks into a ``(B, length)`` matrix.

    Row ``b`` is exactly ``bernoulli_mask(schedule, drop_rates[b],
    seeds[b])[:length]``: each session draws from its own private
    ``default_rng(seed)`` stream, so a session's mask is independent of
    batch composition, batch order, and worker placement.  ``length``
    (default: every transmission, ``schedule.size``) draws only a leading
    prefix of each row; that is exact because ``Generator.random`` spends
    one stream output per double, so the first ``length`` doubles do not
    depend on how many follow.  Returns ``None`` when every rate is zero
    (loss-free batch, nothing to mask).
    """
    if len(drop_rates) != len(seeds):
        raise ReproError(
            f"got {len(seeds)} seeds but {len(drop_rates)} drop rates"
        )
    for rate in drop_rates:
        if not 0 <= rate <= 1:
            raise ReproError(f"drop rate must be in [0, 1], got {rate}")
    size = schedule.size if length is None else length
    if not 0 <= size <= schedule.size:
        raise ReproError(
            f"mask length {size} outside [0, {schedule.size}] transmissions"
        )
    if not any(rate > 0 for rate in drop_rates):
        return None
    masks = np.zeros((len(seeds), size), dtype=np.bool_)
    for b, (seed, rate) in enumerate(zip(seeds, drop_rates)):
        if rate > 0:
            masks[b] = np.random.default_rng(seed).random(size) < rate
    return masks


# --------------------------------------------------------------------------
# Schedule lowering
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Pruned:
    """The transmissions of one scored packet prefix, in kernel index space.

    The kernel never replays the full timetable, only this view of it: the
    transmissions of packets below ``num_packets``, the scored prefix
    ``min(requested packets, compiled packets)``.  That is exact, because
    the hold check and the min-fold both key on ``(node, packet)``: a
    transmission of a packet past the prefix only ever touches that
    packet's holdings, which no metric reads.

    ``columns`` are the kept transmissions' flat indices into the full
    timetable (ascending, so send order is preserved).  Drop masks are drawn
    per session up to the last of them (:attr:`drawn`) and then only these
    columns are selected, so pruning never shifts an RNG stream.
    ``snd_flat`` / ``rcv_flat`` address the rows of the packet-major,
    session-minor holdings matrix
    ``((num_rows + 1) * num_packets, B)``: cell ``packet * num_rows + row``
    for a receiver, and ``num_rows * num_packets + packet`` for a source
    sender — a block the kernel fills with ``-1`` (held since before slot 0)
    so a source's hold check always passes.  ``slots`` lists the non-empty
    slots as ``(slot, lo, hi, unique)``: kept transmissions ``lo:hi`` are
    sent in ``slot``, and ``unique`` records whether their targets are
    pairwise distinct — when they are, the min-fold scatters with plain
    fancy indexing; otherwise it falls back to ``np.minimum.at``.
    ``arrivals`` is the kept transmissions' arrival column, ``(kept, 1)``,
    in the kernel dtype (:func:`_kernel_dtype`): the holdings matrix and the
    score inherit its dtype.  ``lossless`` caches the :func:`_score` output
    of one loss-free session per replay horizon (see
    :func:`_lossless_scores`).

    Views are built on first use and cached in the schedule's ``_np_cache``
    dict under their prefix length, so there is at most one per compiled
    packet; the cache is per-process and never pickled.
    """

    columns: npt.NDArray[np.int64]
    slots: tuple[tuple[int, int, int, bool], ...]
    snd_flat: npt.NDArray[np.int64]
    rcv_flat: npt.NDArray[np.int64]
    arrivals: npt.NDArray[np.signedinteger[Any]]
    num_rows: int
    num_packets: int
    lossless: dict[int, _Scores] = field(default_factory=dict, compare=False, repr=False)

    @property
    def drawn(self) -> int:
        """Leading transmissions of each mask row the view reads: up to and
        including its last kept column."""
        return int(self.columns[-1]) + 1 if self.columns.size else 0


def _rows_of(
    nodes: npt.NDArray[np.int64], ids: npt.NDArray[np.int64]
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
    """Row of each node id in the non-empty ``ids`` (protocol order), and
    whether it was found."""
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    pos = np.minimum(np.searchsorted(ordered, nodes), ids.size - 1)
    return order[pos], ordered[pos] == nodes


def _slot_unique(
    starts: npt.NDArray[np.int64], targets: npt.NDArray[np.int64], width: int
) -> npt.NDArray[np.bool_]:
    """Per slot: are the slot's scatter targets pairwise distinct?

    One sort of ``slot * width + target`` keys; equal neighbours are a
    repeated target within one slot.
    """
    num_slots = len(starts) - 1
    slot_of = np.repeat(np.arange(num_slots, dtype=np.int64), np.diff(starts))
    keys = np.sort(slot_of * width + targets)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    unique = np.ones(num_slots, dtype=np.bool_)
    unique[repeated // width] = False
    return unique


def _kernel_dtype(last_arrival: int, num_packets: int) -> type[np.signedinteger[Any]]:
    """The narrowest dtype that holds every slot the kernel stores.

    The kernel stores arrivals up to ``last_arrival``, starts up to
    ``last_arrival + 1`` and consume slots up to
    ``last_arrival + num_packets - 1``, and reserves the dtype's maximum as
    its "never arrived" sentinel; ``int16`` serves while
    ``last_arrival + num_packets`` stays below that sentinel.
    """
    if last_arrival + num_packets < np.iinfo(np.int16).max:
        return np.int16
    return np.int32


def _prune(schedule: CompiledSchedule, num_packets: int) -> _Pruned:
    """The cached view of ``schedule`` restricted to the scored prefix."""
    all_packets = np.asarray(schedule.packets)
    compiled = int(all_packets.max()) + 1 if all_packets.size else 1
    window = min(num_packets, compiled)
    views: dict[int, _Pruned] | None = schedule._np_cache
    if views is None:
        views = schedule._np_cache = {}
    view = views.get(window)
    if view is not None:
        return view
    columns = np.flatnonzero(all_packets < window)
    packets = all_packets[columns].astype(np.int64)
    senders = np.asarray(schedule.senders, dtype=np.int64)[columns]
    receivers = np.asarray(schedule.receivers, dtype=np.int64)[columns]
    ids = np.asarray(schedule.node_ids, dtype=np.int64)
    rows = len(ids)
    is_source = np.isin(senders, np.asarray(schedule.source_ids, dtype=np.int64))
    snd_row, snd_known = _rows_of(senders, ids)
    rcv_row, rcv_known = _rows_of(receivers, ids)
    if not (rcv_known.all() and (snd_known | is_source).all()):
        raise ReproError("compiled schedule addresses a node outside its node_ids")
    snd_flat = np.where(is_source, rows * window + packets, packets * rows + snd_row)
    rcv_flat = packets * rows + rcv_row
    starts = np.searchsorted(columns, np.asarray(schedule.starts, dtype=np.int64))
    unique = _slot_unique(starts, rcv_flat, rows * window)
    bounds = starts.tolist()
    arrivals = np.asarray(schedule.arrivals, dtype=np.int64)[columns]
    last = int(arrivals.max()) if arrivals.size else 0
    view = _Pruned(
        columns=columns,
        slots=tuple(
            (slot, lo, hi, bool(flag))
            for slot, (lo, hi, flag) in enumerate(
                zip(bounds[:-1], bounds[1:], unique)
            )
            if hi > lo
        ),
        snd_flat=snd_flat,
        rcv_flat=rcv_flat,
        arrivals=arrivals.astype(_kernel_dtype(last, window))[:, None],
        num_rows=rows,
        num_packets=window,
    )
    views[window] = view
    return view


# --------------------------------------------------------------------------
# Kernel
# --------------------------------------------------------------------------


def _pruned_masks(
    schedule: CompiledSchedule,
    view: _Pruned,
    drop_rates: Sequence[float],
    seeds: Sequence[Seed],
) -> npt.NDArray[np.bool_] | None:
    """The view's drop-mask columns, session-minor: ``(kept, B)``.

    Column ``b`` is ``bernoulli_mask(schedule, drop_rates[b],
    seeds[b])[view.columns]``.  Each row is drawn from the session's own
    stream up to the last kept column (:attr:`_Pruned.drawn`) and no
    further: the columns past it are never read, and drawing a shorter
    prefix of a stream leaves its leading values unchanged.
    """
    masks = bernoulli_masks(schedule, drop_rates, seeds, length=view.drawn)
    if masks is None:
        return None
    return masks.T[view.columns]


def _hold_and_deliver(
    view: _Pruned,
    drops: npt.NDArray[np.bool_] | None,
    horizon: int,
    batch: int,
) -> npt.NDArray[np.signedinteger[Any]]:
    """Replay ``horizon`` slots for ``batch`` sessions at once.

    Returns the ``(num_packets, num_rows, batch)`` earliest-arrival matrix
    in the view's dtype (its maximum = never arrived).  One ``(K, B)`` row
    operation per slot: hold check against the pre-slot holdings state,
    mask, then earliest-arrival min-fold scatter.
    """
    dtype = view.arrivals.dtype
    never = np.iinfo(dtype).max
    cells = view.num_packets * view.num_rows
    held = np.full((cells + view.num_packets, batch), never, dtype=dtype)
    held[cells:] = -1
    for slot, lo, hi, unique in view.slots:
        if slot >= horizon:
            break
        ok = held[view.snd_flat[lo:hi]] < slot
        if drops is not None:
            ok &= ~drops[lo:hi]
        targets = view.rcv_flat[lo:hi]
        arrived = np.where(ok, view.arrivals[lo:hi], never)
        if unique:
            held[targets] = np.minimum(held[targets], arrived)
        else:
            np.minimum.at(held, targets, arrived)
    return held[:cells].reshape(view.num_packets, view.num_rows, batch)


def _score(held: npt.NDArray[np.signedinteger[Any]]) -> _Scores:
    """Per-node playback scores over the pruned packet prefix.

    ``held`` is the ``(packets, rows, B)`` kernel output (its dtype's
    maximum = never arrived).  Returns ``(startup_delays, buffer_peaks,
    available_counts)``, each of shape ``(rows, B)``, matching
    :func:`~repro.core.metrics.summarize_lossy_playback` node for node:
    startup is the earliest hiccup-free start over the *available* packets
    (0 when nothing arrived), and the buffer peak is the max end-of-slot
    occupancy at that start (packet ``p`` arrives at its slot and is
    consumed at ``max(start + p - 1, arrival)``; missing packets never
    occupy).  Measured packets past the compiled ones never arrive, so they
    count toward neither score.  Besides ``held`` itself, the temporaries
    are a few ``(packets, rows * B)`` arrays.
    """
    packets, *shape = held.shape
    arrival = held.reshape(packets, -1)
    never = np.iinfo(held.dtype).max
    avail = arrival < never
    # Per-cell counts never exceed the prefix length.
    counter = np.min_scalar_type(packets)
    navail = avail.view(np.uint8).sum(axis=0, dtype=counter)
    packet = np.arange(packets, dtype=held.dtype)[:, None]
    # arrival - packet where available, else the dtype's minimum: a bitwise
    # select through an all-ones/all-zeros mask, cheaper than np.where.
    keep = avail.astype(held.dtype)
    np.negative(keep, out=keep)
    relative = arrival - packet
    relative &= keep
    np.invert(keep, out=keep)
    keep &= np.iinfo(held.dtype).min
    relative |= keep
    start = np.where(navail > 0, relative.max(axis=0) + 1, 0)
    del keep, relative  # not needed by the count: free them before it
    # Occupancy only rises at an arrival, so the peak is reached at some
    # available packet p's arrival slot: count the packets q held then,
    # arrival_q <= arrival_p <= consume_q.  An available q is consumed at
    # start + q - 1, never before its arrival, because start >=
    # arrival_q - q + 1.  So arrival_p <= consume_q reads arrival_p <
    # start + q, and start + q stays below the sentinel (the dtype holds
    # every consume slot).  A missing p arrives at the sentinel and counts
    # nothing; a missing q is counted by no available p.  Comparing against
    # start + q rather than arrival_p - start keeps the sentinel out of any
    # subtraction, which would overflow when start < 0 (every packet a node
    # holds arrived two or more slots before its number).
    count = np.zeros(arrival.shape, dtype=counter)
    held_then = np.empty(arrival.shape, dtype=np.bool_)
    unconsumed = np.empty(arrival.shape, dtype=np.bool_)
    for q in range(packets):
        np.less_equal(arrival[q], arrival, out=held_then)
        np.less(arrival, start + q, out=unconsumed)
        held_then &= unconsumed
        count += held_then.view(np.uint8)
    peak = count.max(axis=0)
    return start.reshape(shape), peak.reshape(shape), navail.reshape(shape)


def _lossless_scores(view: _Pruned, horizon: int) -> _Scores:
    """The :func:`_score` output of one loss-free session of ``view`` over
    ``horizon`` slots, ``(rows, 1)`` each.

    A loss-free session reads neither a mask nor its seed, so the scores
    depend on the view and the horizon alone: they are computed once and
    kept, read-only, in ``view.lossless`` under the horizon.
    """
    scores = view.lossless.get(horizon)
    if scores is None:
        scores = _score(_hold_and_deliver(view, None, horizon, 1))
        for column in scores:
            column.flags.writeable = False
        view.lossless[horizon] = scores
    return scores


# --------------------------------------------------------------------------
# Public surface
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BatchMetrics:
    """Per-session metric columns of one :func:`replay_batch` call.

    Session ``i`` of every column scores seed ``seeds[i]`` at rate
    ``drop_rates[i]``; :meth:`metrics` rebuilds the session's scalar
    :class:`~repro.core.metrics.RepairMetrics` exactly.

    Attributes:
        num_sessions / num_nodes / num_packets / num_slots: batch shape —
            sessions scored, receivers per session, measured packet prefix,
            replayed horizon.
        seeds / drop_rates: the batch coordinates, session-aligned.
        residual: ``(node, packet)`` pairs never delivered, per session.
        available: pairs delivered, per session.
        max_delay / avg_delay: worst / mean loss-tolerant startup delay
            over the session's nodes.
        max_buffer / avg_buffer: worst / mean peak buffer occupancy.
        node_delays / node_buffers: per-node ``(B, num_nodes)`` startup
            delay and buffer peak columns (``None`` when the call passed
            ``keep_node_columns=False``); node order follows
            ``schedule.node_ids``.
    """

    num_sessions: int
    num_nodes: int
    num_packets: int
    num_slots: int
    seeds: tuple[Seed, ...]
    drop_rates: tuple[float, ...]
    residual: npt.NDArray[np.int64]
    available: npt.NDArray[np.int64]
    max_delay: npt.NDArray[np.int64]
    avg_delay: npt.NDArray[np.float64]
    max_buffer: npt.NDArray[np.int64]
    avg_buffer: npt.NDArray[np.float64]
    node_delays: npt.NDArray[np.int32] | None = None
    node_buffers: npt.NDArray[np.int32] | None = None

    def metrics(self, i: int) -> RepairMetrics:
        """Session ``i``'s scalar :class:`RepairMetrics` (no baseline)."""
        if not 0 <= i < self.num_sessions:
            raise ReproError(
                f"session index {i} outside batch [0, {self.num_sessions})"
            )
        residual = int(self.residual[i])
        available = int(self.available[i])
        return RepairMetrics(
            num_nodes=self.num_nodes,
            num_packets=self.num_packets,
            num_slots=self.num_slots,
            residual_pairs=residual,
            residual_loss_rate=residual / (self.num_nodes * self.num_packets),
            recovered_pairs=0,
            recovery_latency_mean=0.0,
            recovery_latency_max=0,
            recovery_latencies=(),
            goodput=available / (self.num_nodes * self.num_slots),
            max_effective_delay=int(self.max_delay[i]),
            avg_effective_delay=float(self.avg_delay[i]),
            max_buffer=int(self.max_buffer[i]),
            avg_buffer=float(self.avg_buffer[i]),
        )

    def rows(self) -> list[dict[str, Any]]:
        """Flat sweep rows (``seed``, ``drop_rate``, the metrics columns) —
        the same shape :func:`~repro.exec.executor.replay_sweep_task`
        returns for one point."""
        out: list[dict[str, Any]] = []
        for i in range(self.num_sessions):
            row: dict[str, Any] = {
                "seed": self.seeds[i],
                "drop_rate": self.drop_rates[i],
            }
            row.update(self.metrics(i).row())
            out.append(row)
        return out


def replay_batch(
    schedule: CompiledSchedule,
    seeds: Sequence[Seed],
    drop_rates: float | Sequence[float],
    *,
    num_packets: int,
    num_slots: int | None = None,
    keep_node_columns: bool = True,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
) -> BatchMetrics:
    """Score a whole batch of sessions of one compiled schedule in one pass.

    The batch primitive behind ``ExperimentSpec(kind="sweep")`` and the
    fleet runner: session ``i`` replays ``schedule`` under the drop mask of
    ``(seeds[i], drop_rates[i])`` and is scored exactly like
    :func:`~repro.exec.replay.replay_point` — same loss model, same
    metrics, bit-for-bit.  Bumps ``sweep.batch_sessions`` /
    ``sweep.batched_tx`` on the active registry, counting every session.

    Loss-free sessions (rate 0) draw no mask and never read their seed, so
    they all score the same: one of them is replayed once per pruned view
    and horizon, and every call broadcasts its cached scores into all of
    its rate-0 rows.  Lossy sessions replay in chunks (see
    ``element_budget``).  Every seed is checked before anything replays,
    whatever its rate.

    Args:
        schedule: the compiled timetable every session shares.
        seeds: one RNG seed (``int >= 0`` or ``SeedSequence``) per session.
        drop_rates: per-session Bernoulli drop rates, or one scalar rate
            (any 0-d real, NumPy scalars included) broadcast to the whole
            batch.
        num_packets: measured stream prefix.
        num_slots: replay horizon (defaults to the compiled horizon).
        keep_node_columns: also return the per-node ``(B, num_nodes)``
            delay/buffer columns (needed to build per-session SLOs; drop
            them for plain sweeps to save memory).
        element_budget: kernel working-set cap in array elements.  Lossy
            sessions replay in chunks sized so that each array a chunk
            allocates (drawn masks, pruned holdings, score temporaries)
            holds at most this many elements.
    """
    horizon = schedule.num_slots if num_slots is None else num_slots
    if not 0 <= horizon <= schedule.num_slots:
        raise ReproError(
            f"replay horizon {horizon} outside compiled range "
            f"[0, {schedule.num_slots}]"
        )
    if horizon < 1:
        raise ReproError(f"num_slots must be positive to score a batch, got {horizon}")
    if num_packets < 1:
        raise ReproError(f"num_packets must be positive, got {num_packets}")
    seeds = tuple(seeds)
    total = len(seeds)
    if total == 0:
        raise ReproError("replay_batch needs at least one session seed")
    check_seeds(seeds)
    scalar = scalar_rate(drop_rates)
    if scalar is not None:
        rates: tuple[float, ...] = (scalar,) * total
    else:
        rates = tuple(float(rate) for rate in drop_rates)  # type: ignore[union-attr]
    if len(rates) != total:
        raise ReproError(f"got {total} seeds but {len(rates)} drop rates")
    for rate in rates:
        if not 0 <= rate <= 1:
            raise ReproError(f"drop rate must be in [0, 1], got {rate}")
    rows = schedule.num_nodes
    if rows == 0:
        raise ReproError("schedule has no receiver nodes to score")
    view = _prune(schedule, num_packets)
    per_session = max((rows + 1) * view.num_packets, view.drawn)
    chunk = max(1, element_budget // per_session)

    available = np.empty(total, dtype=np.int64)
    max_delay = np.empty(total, dtype=np.int64)
    avg_delay = np.empty(total, dtype=np.float64)
    max_buffer = np.empty(total, dtype=np.int64)
    avg_buffer = np.empty(total, dtype=np.float64)
    node_delays = (
        np.empty((total, rows), dtype=np.int32) if keep_node_columns else None
    )
    node_buffers = (
        np.empty((total, rows), dtype=np.int32) if keep_node_columns else None
    )

    def store(at: npt.NDArray[np.intp], scores: _Scores) -> None:
        """Write ``scores`` into output rows ``at`` (one column broadcasts)."""
        delays, peaks, navail = scores
        available[at] = navail.sum(axis=0)
        max_delay[at] = delays.max(axis=0)
        avg_delay[at] = delays.mean(axis=0)
        max_buffer[at] = peaks.max(axis=0)
        avg_buffer[at] = peaks.mean(axis=0)
        if node_delays is not None and node_buffers is not None:
            node_delays[at] = delays.T
            node_buffers[at] = peaks.T

    lossy = np.asarray(rates) > 0
    if not lossy.all():
        store(np.flatnonzero(~lossy), _lossless_scores(view, horizon))
    lossy_at = np.flatnonzero(lossy)
    for lo in range(0, lossy_at.size, chunk):
        at = lossy_at[lo:lo + chunk]
        members = at.tolist()
        drops = _pruned_masks(
            schedule, view, [rates[i] for i in members], [seeds[i] for i in members]
        )
        store(at, _score(_hold_and_deliver(view, drops, horizon, at.size)))
    residual = num_packets * rows - available
    registry = active_registry()
    scheme = schedule.key.scheme if schedule.key is not None else "ad-hoc"
    registry.counter("sweep.batch_sessions", scheme=scheme).inc(total)
    # Scheduled transmissions within the horizon, pruned or not.
    end = schedule.starts[horizon]
    registry.counter("sweep.batched_tx", scheme=scheme).inc(total * end)
    return BatchMetrics(
        num_sessions=total,
        num_nodes=rows,
        num_packets=num_packets,
        num_slots=horizon,
        seeds=seeds,
        drop_rates=rates,
        residual=residual,
        available=available,
        max_delay=max_delay,
        avg_delay=avg_delay,
        max_buffer=max_buffer,
        avg_buffer=avg_buffer,
        node_delays=node_delays,
        node_buffers=node_buffers,
    )
