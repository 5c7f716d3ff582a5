"""Permutation-equivalence canonical forms for binary codes.

Over GF(2) a monomial transformation is just a column permutation, so
two codes are equivalent exactly when their column-type multiplicity
vectors lie in the same orbit under invertible changes of basis T.  The
canonical form is the lexicographically least serialization over that
orbit: the zero-column count, then counts[T(x)] for x = 1 .. 2^k - 1.

Choosing c = T(e_j) fixes positions 2^j .. 2^(j+1)-1 at once, to
counts[c ^ T(x)] for x < 2^j.  So the search over basis images runs
breadth-first, one level per basis vector: every partial basis still
tied for the least prefix tries every c outside its span, and only the
least blocks go on (the prefix compare IS the pruning).  One call does
this for a whole batch of vectors.
"""

from __future__ import annotations

import struct

import numpy as np

CANONICAL_CAP = 6  # basis-orbit minimization is exponential in k
PAIR_SLICE = 1 << 16  # (partial basis, image) pairs scored per step; bounds memory
GREEDY_BLOCK = 1 << 16  # rows canonical_classes moves to greedy form at once


def _least_pairs(flat, q: int, owner, span, b):
    """Pairs (b, c) of the partial bases b, sorted by owning row, and the
    images c outside their spans that give their row's least block,
    compared one position at a time."""
    outside = np.ones((len(b), q), dtype=bool)
    outside[np.arange(len(b))[:, None], span[b]] = False
    i, c = np.nonzero(outside)
    b, own = b[i], owner[b[i]]
    lo = own[0]
    least = np.empty(own[-1] - lo + 1, dtype=flat.dtype)
    for x in range(span.shape[1]):
        vals = flat[own * q + (c ^ span[b, x])]
        least.fill(np.iinfo(flat.dtype).max)
        np.minimum.at(least, own - lo, vals)
        keep = vals == least[own - lo]
        b, c, own = b[keep], c[keep], own[keep]
    return b, c, own


def _search(counts: np.ndarray, k: int, greedy: bool = False) -> np.ndarray:
    """Canonical forms of the rows of a nonempty (R, 2^k) integer array;
    or, greedy, each row serialized along the first least-block path."""
    q = 1 << k
    out = counts.copy()
    flat = counts.ravel()
    owner = np.arange(len(counts))              # row of each tied partial basis
    span = np.zeros((len(counts), 1), dtype=np.uint8)  # span[b, x] = T(x), x < 2^j
    for j in range(k):
        size = 1 << j
        best = np.full((len(counts), size), np.iinfo(counts.dtype).max)
        stamp = np.full(len(counts), -1)  # slice that last lowered a row's best
        kept = []
        step = max(1, PAIR_SLICE // (q - size))
        for s, lo in enumerate(range(0, len(owner), step)):
            b, c, own = _least_pairs(flat, q, owner, span,
                                     np.arange(lo, min(lo + step, len(owner))))
            first = np.r_[True, own[1:] != own[:-1]]
            row = own[first]
            block = flat[row[:, None] * q + (c[first, None] ^ span[b[first]])]
            cur = best[row]
            at = np.arange(len(row)), (block != cur).argmax(axis=1)
            lower, higher = block[at] < cur[at], block[at] > cur[at]
            best[row[lower]] = block[lower]
            stamp[row[lower]] = s
            if j + 1 < k:  # the last level needs only the least block
                ok = ~higher[np.cumsum(first) - 1]
                if greedy:  # a single path: each row's first least pair
                    ok &= first
                kept.append((b[ok], c[ok], np.full(ok.sum(), s)))
        out[:, size:2 * size] = best
        if j + 1 < k:
            b, c, s = (np.concatenate(a) for a in zip(*kept))
            live = s >= stamp[owner[b]]  # ties with the row's final least block
            b, c = b[live], c[live].astype(np.uint8)
            owner = owner[b]
            span = np.concatenate([span[b], c[:, None] ^ span[b]], axis=1)
    return out


def canonical_rows(rows, k: int) -> np.ndarray:
    """Canonical form of every row of an (R, 2^k) multiplicity array.

    A greedy pass first moves every row along one least-block path: the
    rows of one orbit land on few vectors of it, and only those are
    searched in full."""
    if k > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at k={CANONICAL_CAP}")
    counts = np.array(rows, dtype=np.int32).reshape(len(rows), 1 << k)
    if not len(counts):
        return counts
    near = _search(counts, k, greedy=True)
    _, first, back = np.unique(near.view(f"V{near.itemsize << k}").ravel(),
                               return_index=True, return_inverse=True)
    return _search(near[first], k)[back]


def _distinct(rows: np.ndarray, k: int) -> np.ndarray:
    """The distinct rows of an (R, 2^k) array."""
    _, first = np.unique(rows.view(f"V{rows.itemsize << k}").ravel(),
                         return_index=True)
    return rows[first]


def canonical_classes(arrays, k: int) -> np.ndarray:
    """The distinct canonical forms among the rows of a list of (R, 2^k)
    multiplicity arrays.

    The forms are those of canonical_rows, but only the distinct ones
    are kept at each stage: the greedy pass runs GREEDY_BLOCK rows of
    the stacked arrays at a time and keeps each block's distinct
    results, so besides that stack memory follows the number of
    distinct greedy forms, not the number of rows."""
    if k > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at k={CANONICAL_CAP}")
    arrays = [a for a in arrays if len(a)]
    if not arrays:
        return np.empty((0, 1 << k), dtype=np.int32)
    rows = np.vstack(arrays)
    near = np.vstack([_distinct(_search(rows[lo:lo + GREEDY_BLOCK].astype(np.int32),
                                        k, greedy=True), k)
                      for lo in range(0, len(rows), GREEDY_BLOCK)])
    return _distinct(_search(_distinct(near, k), k), k)


def canonical_counts(counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Lexicographically least multiplicity vector in the GL(k,2) orbit."""
    return tuple(int(x) for x in canonical_rows([counts], k)[0])


def counts_key(n: int, k: int, canon: tuple[int, ...]) -> bytes:
    """Serialize a canonical multiplicity vector into the class key."""
    return struct.pack(">BH", k, n) + b"".join(struct.pack(">H", c) for c in canon)


def canonical_key(tm) -> bytes:
    """The class key of a code.TypeMultiplicity."""
    return counts_key(tm.n, tm.k, canonical_counts(tm.counts, tm.k))
