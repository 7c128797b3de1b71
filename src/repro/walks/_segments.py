"""Segmented (ragged-array) primitives for the vectorized walk engine.

A wave of walkers sits at nodes of wildly different degrees, so per-step
row operations (exact sampling, row argmax) act on a *ragged* collection
of CSR rows. These helpers flatten the active rows into one contiguous
buffer and run the per-row reductions as O(total) vector passes —
the numpy equivalent of the per-thread loops in the paper's C++ engine.

Conventions: ``starts``/``lengths`` describe each walker's row (global CSR
offset of its first edge, its degree). All functions tolerate zero-length
segments.
"""

from __future__ import annotations

import numpy as np


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``[starts_i, starts_i + lengths_i)`` ranges into one array.

    Returns ``(flat_indices, segment_ids)`` where ``segment_ids[j]`` tells
    which input segment produced ``flat_indices[j]``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    seg_ids = np.repeat(np.arange(starts.size, dtype=np.int64), lengths)
    seg_start_pos = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    within = np.arange(total, dtype=np.int64) - seg_start_pos[seg_ids]
    return starts[seg_ids] + within, seg_ids


def race_keys(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exponential-race key per entry: ``-log1p(-u) / value`` (+inf at <= 0).

    ``argmin`` of the keys within a segment is an exact categorical draw
    ∝ ``values`` (the Exp(w) race construction). Each key is a pure
    function of its own ``(value, u)`` pair — no prefix sums across
    entries — so any contiguous slice of a wave's flat buffer yields the
    same keys whether it is evaluated whole or split across workers.
    """
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = -np.log1p(-u) / values
    keys[~(values > 0.0)] = np.inf
    return keys


def segment_race_argmin(keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Within-segment argmin position of finite race keys per segment.

    Returns -1 for empty segments and for segments whose keys are all
    +inf (zero-mass rows). The reduction is per-segment only — entries
    of one segment never affect another's winner.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    num_segments = lengths.size
    out = np.full(num_segments, -1, dtype=np.int64)
    if keys.size == 0 or num_segments == 0:
        return out
    ends = np.cumsum(lengths)
    starts = ends - lengths
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    # reduceat needs strictly valid start indices; restrict to nonempty rows
    ne_starts = starts[nonempty]
    mins = np.minimum.reduceat(keys, ne_starts)
    seg_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
    min_per_pos = np.empty(num_segments, dtype=np.float64)
    min_per_pos[nonempty] = mins
    hits = keys <= min_per_pos[seg_ids]
    hit_pos = np.flatnonzero(hits)
    hit_seg = seg_ids[hit_pos]
    first_seg, first_idx = np.unique(hit_seg, return_index=True)
    out[first_seg] = hit_pos[first_idx] - starts[first_seg]
    # an all-inf segment trivially "hits" at its first entry; mask it out
    winner = np.full(num_segments, np.inf, dtype=np.float64)
    winner[nonempty] = mins
    out[~np.isfinite(winner)] = -1
    return out


def segment_argmax(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Within-segment argmax position per segment (-1 for empty segments)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    num_segments = lengths.size
    out = np.full(num_segments, -1, dtype=np.int64)
    if values.size == 0 or num_segments == 0:
        return out
    ends = np.cumsum(lengths)
    starts = ends - lengths
    nonempty = lengths > 0
    if not nonempty.any():
        return out
    # reduceat needs strictly valid start indices; restrict to nonempty rows
    ne_starts = starts[nonempty]
    maxes = np.maximum.reduceat(values, ne_starts)
    # tail segment of reduceat runs to the end of the buffer; that is fine
    # because segments are contiguous and ordered.
    seg_ids = np.repeat(np.arange(num_segments, dtype=np.int64), lengths)
    max_per_pos = np.empty(num_segments, dtype=np.float64)
    max_per_pos[nonempty] = maxes
    hits = values >= max_per_pos[seg_ids]
    hit_pos = np.flatnonzero(hits)
    hit_seg = seg_ids[hit_pos]
    first_seg, first_idx = np.unique(hit_seg, return_index=True)
    out[first_seg] = hit_pos[first_idx] - starts[first_seg]
    return out
