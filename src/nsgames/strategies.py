"""Exact optimization over deterministic strategy pairs.

Everything here works on a real payoff tensor T[x, a, y, b]: the joint score
of a pair (f, g) is sum_y T-row values at (x, f(x), y, g(y)) summed over x,
and for a fixed Alice map f Bob's best reply decomposes per question,

    score(f) = sum_y max_b sum_x T[x, f(x), y, b].

Alice's maps are enumerated meeting in the middle at question ``split``,
over the maps whose first part f(0), ..., f(split - 1) is one of a sorted
set of rows: ``partial_scores`` sums both parts level by level in question
order, as first[i, b, y] over those rows and second[b, y, j] over every map
of the later questions, and a block of rows is scored plane by plane (one
add and one running maximum per b into buffers allocated once per scan, then
a sum over the middle y axis).  When T * L is integral to the last bit for
L = (question pairs) * 2^24, as for every uniform-question game, the scores
are exact integers in the narrowest of int8/int16/int32 that holds them;
otherwise they are float64.  Maps are indexed row-major, f(0) most
significant; ties break to the lowest index, exactly on the integer path.
``map_digits`` inverts this order, for maps and for tuple alphabets alike,
and ``coordinate_blocks`` views an array over tuple alphabets by coordinate.
Reported values always come from ``best_reply`` on T.  ``local_value``
passes the rows canonical along a stabiliser chain of the game's relabelings
(all rows without them) with the chain's keeps up to the split its counts
choose, and ``top_strategies`` every row at split nX//2.
"""

from __future__ import annotations

import numpy as np

_BLOCK_BYTES = 1 << 18  # size of each scratch buffer in the scan


def kernel_weights(tensor: np.ndarray) -> np.ndarray:
    """The tensor as the kernel scores it, laid out W[x, a, b, y]: integer
    when T * L is integral (see the module docstring), else float64."""
    n_x, _, n_y, _ = tensor.shape
    den = n_x * n_y << 24
    scaled = np.rint(tensor * den)
    if (scaled / den == tensor).all() and np.abs(scaled).max() < 2 ** 53:
        ints = scaled.astype(np.int64)
        ints //= max(int(np.gcd.reduce(ints, axis=None)), 1)
        bound = int(np.abs(ints).max(axis=(1, 3)).sum())  # bounds every partial sum
        for dtype in (np.int8, np.int16, np.int32):
            if bound <= np.iinfo(dtype).max:
                return np.ascontiguousarray(ints.transpose(0, 1, 3, 2), dtype=dtype)
    return np.ascontiguousarray(tensor.transpose(0, 1, 3, 2), dtype=np.float64)


def partial_scores(weights: np.ndarray, keeps, start: int) -> np.ndarray:
    """Partial sums from question ``start`` on, one question per ``keep`` in
    ``keeps``: S[row * nA + a] = S[row] + W[question, a] over every child of
    the kept rows, of which ``keep`` picks some (``slice(None)`` all)."""
    _, _, n_b, n_y = weights.shape
    scores = np.zeros((1, n_b, n_y), dtype=weights.dtype)
    for question, keep in enumerate(keeps, start=start):
        scores = (scores[:, None] + weights[question]).reshape(-1, n_b, n_y)[keep]
    return scores


def scan_scores(tensor: np.ndarray, rows: np.ndarray, keeps):
    """Yield (ids, scores) blocks covering, in index order, every Alice map
    whose first len(keeps) digits are a row in ``rows``, sorted, which the
    ``keeps`` pick level by level (see ``partial_scores``).

    ``scores[i, j]`` ranks map ``ids[i] * n2 + j``, with n2 = scores.shape[1]
    the rows of the second part, in the units of ``kernel_weights(tensor)``;
    the block is overwritten by the next one.
    """
    weights = kernel_weights(tensor)
    n_x, n_a, n_b, n_y = weights.shape
    first = partial_scores(weights, keeps, 0)
    second = partial_scores(weights, [slice(None)] * (n_x - len(keeps)), len(keeps))
    second = np.ascontiguousarray(second.transpose(1, 2, 0))
    n2 = second.shape[2]
    chunk = min(len(rows), max(1, _BLOCK_BYTES // (n_y * n2 * weights.itemsize)))
    best, trial = np.empty((2, chunk, n_y, n2), dtype=weights.dtype)
    totals = np.empty((chunk, n2), dtype=weights.dtype)
    for start in range(0, len(rows), chunk):
        ids = rows[start:start + chunk]
        block = first[start:start + len(ids), ..., None]
        m, t, s = best[:len(ids)], trial[:len(ids)], totals[:len(ids)]
        np.add(block[:, 0], second[0], out=m)
        for b in range(1, n_b):
            np.maximum(m, np.add(block[:, b], second[b], out=t), out=m)
        yield ids, np.sum(m, axis=1, dtype=s.dtype, out=s)


def map_digits(index, n_inputs: int, n_outputs: int) -> np.ndarray:
    """Map or tuple indices as digits, inverting the scan order: the new last
    axis holds f(0), ..., f(n_inputs - 1), with f(0) most significant."""
    places = n_outputs ** np.arange(n_inputs - 1, -1, -1)
    return np.asarray(index)[..., None] // places % n_outputs


def coordinate_blocks(array: np.ndarray, bases, k: int, span: int, width: int) -> np.ndarray:
    """``array`` over the width-``width`` tuple alphabets of these bases, viewed
    as (before, span, after) blocks per alphabet around coordinates k .. k+span-1."""
    return array.reshape([m for n in bases for m in (n ** k, n ** span, n ** (width - span - k))])


def best_reply(tensor: np.ndarray, f: tuple[int, ...]) -> tuple[tuple[int, ...], float]:
    """Bob's exact best reply to a fixed Alice map, with the joint value."""
    n_x = tensor.shape[0]
    table = tensor[np.arange(n_x), list(f)].sum(axis=0)  # (nY, nB)
    g = tuple(int(b) for b in np.argmax(table, axis=1))
    value = float(table[np.arange(table.shape[0]), list(g)].sum())
    return g, value


def argmax_strategy(tensor: np.ndarray, rows: np.ndarray, keeps
                    ) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """The best deterministic pair (value, f, g) among the Alice maps whose
    first len(keeps) digits form a row in ``rows`` (see ``scan_scores``)."""
    best_score = -np.inf
    best_index = -1
    for ids, scores in scan_scores(tensor, rows, keeps):
        i, j = np.unravel_index(np.argmax(scores), scores.shape)
        if scores[i, j] > best_score:
            best_score = float(scores[i, j])
            best_index = int(ids[i]) * scores.shape[1] + int(j)
    f = tuple(map_digits(best_index, *tensor.shape[:2]).tolist())
    g, value = best_reply(tensor, f)
    return value, f, g


def top_strategies(tensor: np.ndarray, count: int):
    """The ``count`` best pairs as (value, f, g), by score then map index."""
    top_scores = top_indices = np.zeros(0, dtype=np.int64)
    keeps = [slice(None)] * (tensor.shape[0] // 2)
    for ids, block in scan_scores(tensor, np.arange(tensor.shape[1] ** len(keeps)), keeps):
        # A later map enters only by beating the count-th best so far, and the
        # stable sort keeps tied maps in index order (kept ones come first).
        n2, block = block.shape[1], block.reshape(-1)
        new = (np.flatnonzero(block > top_scores[-1]) if top_scores.size == count
               else np.arange(block.size))
        scores = np.concatenate([top_scores, block[new]])
        keep = np.argsort(-scores, kind="stable")[:count]
        new_indices = ids[new // n2] * n2 + new % n2
        top_scores, top_indices = scores[keep], np.concatenate([top_indices, new_indices])[keep]
    out = []
    for f in map(tuple, map_digits(top_indices, *tensor.shape[:2]).tolist()):
        g, value = best_reply(tensor, f)
        out.append((value, f, g))
    return out
