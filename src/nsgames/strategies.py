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
a sum over y in question order).  When T * L is integral to the last bit for
L = (question pairs) * 2^24, as for every uniform-question game, the scores
are exact integers in the narrowest of int8/int16/int32 that holds them;
otherwise they are float64.  Maps are indexed row-major, f(0) most
significant; ties break to the lowest index, exactly on the integer path.
``map_digits`` inverts this order, for maps and for tuple alphabets alike,
and ``coordinate_blocks`` views an array over tuple alphabets by coordinate.
Reported values always come from ``best_reply`` on T.  ``local_value``
passes the rows canonical along a stabiliser chain of the game's relabelings
(all rows without them) with the chain's keeps up to the split its counts
choose, and ``top_strategies`` every row at split nX//2.  Past its first block
``argmax_strategy`` scans only rows and maps whose bounds reach a score found
(branch and bound); the ranking ``top_strategies`` scans every map.
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


def halves(tensor: np.ndarray, keeps) -> tuple[np.ndarray, np.ndarray]:
    """first[i, b, y] over the rows that the ``keeps`` pick level by level and
    second[b, y, j] over every map of the later questions (see
    ``partial_scores``), in the units of ``kernel_weights(tensor)``."""
    weights = kernel_weights(tensor)
    second = partial_scores(weights, [slice(None)] * (len(weights) - len(keeps)), len(keeps))
    return partial_scores(weights, keeps, 0), np.ascontiguousarray(second.transpose(1, 2, 0))


def plane_scores(first: np.ndarray, second: np.ndarray, buffers=None) -> np.ndarray:
    """scores[i, j] = sum_y max_b (first[i, b, y] + second[b, y, j]), plane by
    plane into ``buffers`` (m, t, s) or new arrays, summed over y in order
    (numpy sums a lone column pairwise): larger terms never round to less."""
    (n, n_b, n_y), n2 = first.shape, second.shape[2]
    m, t, s = buffers or (*np.empty((2, n, n_y, n2), first.dtype), np.empty((n, n2), first.dtype))
    block = first[..., None]
    np.add(block[:, 0], second[0], out=m)
    for b in range(1, n_b):
        np.maximum(m, np.add(block[:, b], second[b], out=t), out=m)
    np.copyto(s, m[:, 0])
    for y in range(1, n_y):
        np.add(s, m[:, y], out=s)
    return s


def scan_scores(first: np.ndarray, second: np.ndarray):
    """Yield (start, ``plane_scores``) over blocks of the rows of ``first`` in
    order, into buffers allocated once: the block is overwritten by the next."""
    _, n_y, n2 = second.shape
    chunk = min(len(first), max(1, _BLOCK_BYTES // second[0].nbytes))
    best, trial = np.empty((2, chunk, n_y, n2), dtype=first.dtype)
    totals = np.empty((chunk, n2), dtype=first.dtype)
    for start in range(0, len(first), chunk):
        n = min(chunk, len(first) - start)
        yield start, plane_scores(first[start:start + n], second,
                                  (best[:n], trial[:n], totals[:n]))


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


def _best(blocks, ids, kept, best: tuple) -> tuple:
    """``best`` (score, row, map), or the first pair of the ``scan_scores``
    blocks (rows ``ids``, maps ``kept``) scoring strictly more: ties keep the lowest."""
    for start, scores in blocks:
        i, j = np.unravel_index(np.argmax(scores), scores.shape)
        if scores[i, j] > best[0]:
            best = scores[i, j], ids[start + i], kept[j]
    return best


def argmax_strategy(tensor: np.ndarray, rows: np.ndarray, keeps
                    ) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """The best deterministic pair (value, f, g) among the Alice maps whose
    first len(keeps) digits form a row in ``rows`` (see ``halves``).  Past the
    scan's first block, row i is bounded by upper[i], against the best
    second-part map per (b, y), map j by side[j], against the later rows' best
    per (b, y), and only those reaching the larger of the first block's best
    and the best in the later row of largest upper are scanned: every tie
    stays.  The bounds are ``plane_scores`` too, so they hold on the float path."""
    first, second = halves(tensor, keeps)
    n2, block = second.shape[2], next(scan_scores(first, second))
    head = len(block[1])
    best = _best([block], range(head), range(n2), (-np.inf, 0, 0))
    rest = first[head:]
    if len(rest):
        upper = plane_scores(second.max(axis=2)[None], rest.transpose(1, 2, 0))[0]
        top = rest[[upper.argmax()]]
        side, row = plane_scores(np.concatenate((rest.max(axis=0, keepdims=True), top)), second)
        incumbent = max(best[0], row.max())
        ids, kept = head + np.flatnonzero(upper >= incumbent), np.flatnonzero(side >= incumbent)
        if ids.size and kept.size:
            best = _best(scan_scores(first[ids], np.take(second, kept, axis=2)), ids, kept, best)
    f = tuple(map_digits(int(rows[best[1]]) * n2 + int(best[2]), *tensor.shape[:2]).tolist())
    g, value = best_reply(tensor, f)
    return value, f, g


def top_strategies(tensor: np.ndarray, count: int):
    """The ``count`` best pairs as (value, f, g), by score then map index."""
    top_scores = top_indices = np.zeros(0, dtype=np.int64)
    keeps = [slice(None)] * (tensor.shape[0] // 2)
    first, second = halves(tensor, keeps)
    for start, block in scan_scores(first, second):
        # A later map enters only by beating the count-th best so far, and the
        # stable sort keeps tied maps in index order (kept ones come first).
        block = block.reshape(-1)
        new = (np.flatnonzero(block > top_scores[-1]) if top_scores.size == count
               else np.arange(block.size))
        scores = np.concatenate([top_scores, block[new]])
        keep = np.argsort(-scores, kind="stable")[:count]
        new_indices = start * second.shape[2] + new
        top_scores, top_indices = scores[keep], np.concatenate([top_indices, new_indices])[keep]
    out = []
    for f in map(tuple, map_digits(top_indices, *tensor.shape[:2]).tolist()):
        g, value = best_reply(tensor, f)
        out.append((value, f, g))
    return out
