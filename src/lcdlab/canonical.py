"""Permutation-equivalence canonical forms for binary codes.

Over GF(2) a monomial transformation is just a column permutation, so
two codes are equivalent exactly when their column-type multiplicity
vectors lie in the same orbit under invertible changes of basis.  The
canonical form is the lexicographically least serialization of the
multiplicity vector over that orbit, found by a backtracking search
over basis images with prefix pruning (cheap invariants first would not
help here: the prefix compare IS the pruning).

For k <= 4 the full group is small enough to tabulate; the table backs
the classifier's fast orbit-closure deduplication.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from .code import CANONICAL_CAP, TypeMultiplicity

GL_TABLE_CAP = 4  # full group tables: |GL(4,2)| = 20160 rows
CANON_CACHE_SIZE = 1 << 14  # canonical forms kept, least recently used out

_GL_ORDER = {1: 1, 2: 6, 3: 168, 4: 20160, 5: 9999360}


@lru_cache(maxsize=None)
def gl2_matrices(k: int) -> tuple[tuple[int, ...], ...]:
    """All invertible k x k matrices over GF(2), rows bit-packed."""
    if k > GL_TABLE_CAP:
        raise ValueError(f"group table capped at k={GL_TABLE_CAP}")
    mats: list[tuple[int, ...]] = []

    def extend(rows: list[int], span: set[int]):
        if len(rows) == k:
            mats.append(tuple(rows))
            return
        for r in range(1, 1 << k):
            if r not in span:
                new_span = span | {r ^ s for s in span}
                extend(rows + [r], new_span)

    extend([], {0})
    assert len(mats) == _GL_ORDER[k]
    return tuple(mats)


@lru_cache(maxsize=None)
def gl2_type_permutations(k: int) -> np.ndarray:
    """(|GL(k,2)|, 2^k) array: row g maps type index x to image under g."""
    rows = np.array(gl2_matrices(k), dtype=np.uint8)[:, :, None]
    parity = np.bitwise_count(rows & np.arange(1 << k, dtype=np.uint8)) & 1
    shift = np.arange(k, dtype=np.uint8)[:, None]
    return (parity << shift).sum(axis=1, dtype=np.uint8)


def _canonical_counts_backtrack(counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Orbit minimum by DFS over basis images with prefix pruning.

    Serialization position x (1-based over nonzero types) carries
    counts[T(x)]; choosing the image of the j-th basis vector fixes
    positions 2^j .. 2^(j+1)-1 at once.
    """
    q = 1 << k
    span = [0] * q          # span[x] = T(x) for x below the filled level
    work = [0] * (q - 1)
    best: list[int] | None = None

    def dfs(j: int, tight: bool) -> bool:
        nonlocal best
        size = 1 << j
        lo, hi = size - 1, 2 * size - 1
        in_span = set(span[:size])
        cands = []
        for c in range(1, q):
            if c in in_span:
                continue
            cands.append(([counts[c ^ span[x]] for x in range(size)], c))
        cands.sort()
        updated = False
        for seg, c in cands:
            if tight:
                bseg = best[lo:hi]  # type: ignore[index]
                if seg > bseg:
                    break
                child_tight = seg == bseg
            else:
                child_tight = False
            work[lo:hi] = seg
            if j + 1 == k:
                if not child_tight:
                    best = work.copy()
                    upd = True
                else:
                    upd = False
            else:
                for x in range(size):
                    span[size + x] = c ^ span[x]
                upd = dfs(j + 1, child_tight)
            if upd:
                updated = True
                tight = True
        return updated

    dfs(0, False)
    assert best is not None
    return (counts[0],) + tuple(best)


@lru_cache(maxsize=CANON_CACHE_SIZE)
def canonical_counts(counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Lexicographically least multiplicity vector in the GL(k,2) orbit."""
    if k > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at k={CANONICAL_CAP}")
    return _canonical_counts_backtrack(counts, k)


def counts_key(n: int, k: int, canon: tuple[int, ...]) -> bytes:
    """Serialize a canonical multiplicity vector into the class key."""
    return struct.pack(">BH", k, n) + b"".join(struct.pack(">H", c) for c in canon)


def canonical_key(tm: TypeMultiplicity) -> bytes:
    return counts_key(tm.n, tm.k, canonical_counts(tm.counts, tm.k))
