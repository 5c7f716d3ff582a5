"""Permutation-equivalence canonical forms for binary codes.

Over GF(2) a monomial transformation is just a column permutation, so
two codes are equivalent exactly when their column-type multiplicity
vectors lie in the same orbit under invertible changes of basis T.  The
canonical form is the lexicographically least serialization over that
orbit: the zero-column count, then counts[T(x)] for x = 1 .. 2^k - 1.
canonical_classes gives the distinct forms of a list of arrays of
vectors; canonical_counts is a call of it on one vector.  A class key
is k as one byte, then the length (the vector's sum) and every count of
the canonical vector as big-endian uint16.  counts_keys is the one
writer of those bytes, for a whole stack of vectors in one array pass:
the classifier's level files take their keys from it, and canonical_key
is a stack of one.

Choosing c = T(e_j) fixes positions 2^j .. 2^(j+1)-1 at once, to
counts[c ^ T(x)] for x < 2^j.  So the search over basis images runs
breadth first, one level per basis vector: every partial basis still
tied for the least prefix tries every c outside its span, and only the
least blocks go on (the prefix compare IS the pruning).  One call does
this for a whole batch of vectors.

The tied partial bases are pruned by the automorphisms of the row, the
basis changes g with counts[g(x)] = counts[x] (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).  Such a g maps a tied
partial basis P to a tied one, gP, and every completion B of P to the
completion gB of gP with the same serialization, so P and gP have the
same least completion and one of them can go.  That holds for every
automorphism, so pruning by any subgroup of the ones found keeps the
least serialization, and with it every class key: a weaker prune only
keeps more partial bases.

The automorphisms come from probes.  Each tied partial basis of a row
that holds several is completed greedily, along its first least-block
path; two completions B1, B2 of one row that serialize alike give the
automorphism B2 B1^-1, which maps the first partial basis to the
second.  At each level, the partial bases of a row linked by equal
completions, or siblings (children of one partial basis P) linked by a
found automorphism that fixes P, keep one representative.  Probes run
only for k >= 5, at the levels with at least three more below them;
the levels below are still pruned by the automorphisms found there.
Both gates were chosen by timing (CHANGES.md has the numbers): probes
at k = 4 made the ladder-dim4 dedupe slower, probes one level deeper
made the k = 5 and k = 6 rows slower, and one level shallower made
sparse k = 5 rows slower and let the sparse k = 6 rows of
classify(9, 6, 2) run out of 1.5 GB.
"""

from __future__ import annotations

import numpy as np

CANONICAL_CAP = 6  # basis-orbit minimization is exponential in k
PAIR_SLICE = 1 << 16  # (partial basis, image) pairs scored per step; bounds memory
GREEDY_BLOCK = 1 << 16  # rows canonical_classes moves to greedy form at once


def _starts(g):
    """Where each run of equal values of the sorted array g begins."""
    start = np.empty(len(g), dtype=bool)
    start[:1] = True
    np.not_equal(g[1:], g[:-1], out=start[1:])
    return start


def _slice_pairs(flat, q: int, row, span, group):
    """Pairs (i, c) of the nodes i (partial bases span[i] of rows row[i],
    sorted by group) and the images c outside span[i] whose block
    counts[row[i]][c ^ span[i, x]], x < width, is the least among the
    pairs of i's group, compared one position at a time.  Every node has
    the same number of images, so they are scored as one (node, image)
    array; a node drops out once none of its images ties."""
    n, size = span.shape
    outside = np.ones((n, q), dtype=bool)
    outside[np.arange(n)[:, None], span] = False
    c = np.nonzero(outside)[1].reshape(n, q - size).astype(np.uint8)
    node = np.arange(n)
    base = row[:, None] * q
    tie = np.ones(c.shape, dtype=bool)
    top = np.iinfo(flat.dtype).max
    start = _starts(group)
    heads, owner = np.flatnonzero(start), np.cumsum(start) - 1
    for x in range(size):
        vals = np.where(tie, flat[base + (c ^ span[:, x, None])], top)
        low = vals.min(axis=1)
        least = np.minimum.reduceat(low, heads)[owner]
        tie &= vals == least[:, None]
        live = low == least
        if not live.all():
            node, c, span, base, group, tie = (
                a[live] for a in (node, c, span, base, group, tie))
            start = _starts(group)
            heads, owner = np.flatnonzero(start), np.cumsum(start) - 1
    at, image = np.nonzero(tie)
    return node[at], c[at, image]


def _least_pairs(flat, q: int, row, span, group):
    """The pairs of _slice_pairs over all nodes, scored PAIR_SLICE pairs
    at a time, and each group's least block (groups are 0 .. G-1).

    A slice keeps its own least pairs per group; those of a slice that
    came before the one that set the group's final least block, or that
    were above the group's least block when scored, are dropped."""
    n, size = span.shape
    step = max(1, PAIR_SLICE // (q - size))
    if n <= step:  # one slice, as in most calls: no merging across slices
        i, c = _slice_pairs(flat, q, row, span, group)
        lead = _starts(group[i])
        return i, c, flat[row[i[lead], None] * q + (c[lead, None] ^ span[i[lead]])]
    best = np.full((int(group[-1]) + 1, size), np.iinfo(flat.dtype).max)
    stamp = np.full(len(best), -1)  # slice that last lowered a group's best
    kept = []
    for s, lo in enumerate(range(0, n, step)):
        part = slice(lo, lo + step)
        i, c = _slice_pairs(flat, q, row[part], span[part], group[part])
        i += lo
        g = group[i]
        first = _starts(g)
        at_first = i[first]
        grp = g[first]
        block = flat[row[at_first, None] * q + (c[first, None] ^ span[at_first])]
        cur = best[grp]
        at = np.arange(len(grp)), (block != cur).argmax(axis=1)
        lower, higher = block[at] < cur[at], block[at] > cur[at]
        best[grp[lower]] = block[lower]
        stamp[grp[lower]] = s
        ok = ~higher[np.cumsum(first) - 1]
        kept.append((i[ok], c[ok], np.full(ok.sum(), s)))
    i, c, s = (np.concatenate(a) for a in zip(*kept))
    live = s >= stamp[group[i]]  # ties with the group's final least block
    return i[live], c[live], best


def _extend(span, c):
    """The partial bases span + (c): T(x + 2^j) = c ^ T(x)."""
    c = c.astype(np.uint8)[:, None]
    return np.concatenate([span, c ^ span], axis=1)


def _greedy_step(flat, q: int, row, span):
    """Each partial basis extended by the least image c that gives its
    least block: one level of its first least-block path."""
    i, c, _ = _least_pairs(flat, q, row, span, np.arange(len(row)))
    first = _starts(i)
    return _extend(span[i[first]], c[first])


def _greedy_bases(flat, q: int, row, span):
    """Each partial basis completed along its first least-block path, as
    a type permutation T, T[x] = T(x)."""
    while span.shape[1] < q:
        span = _greedy_step(flat, q, row, span)
    return span


def _components(n: int, a, b):
    """Least member of each node's connected component, edges a -- b."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _rows(a):
    """The rows of a 2-D array as single values, for np.unique."""
    a = np.ascontiguousarray(a)
    return a.view(f"V{a.itemsize * a.shape[1]}").ravel()


def _probe(flat, q: int, row, span):
    """Pairs (a, b) of tied partial bases of one row whose greedy
    completions B1, B2 serialize alike, and the automorphisms B2 B1^-1
    mapping each a to its b (type permutations, g[B1[x]] = B2[x]).

    The completions advance together, one level at a time, and one that
    serializes unlike every other of its row stops there: it can no
    longer end like any of them."""
    alive = np.arange(len(row))
    group = row.copy()  # completions with equal serializations so far
    while span.shape[1] < q and len(alive):
        span = _greedy_step(flat, q, row[alive], span)
        size = span.shape[1] // 2
        block = flat[row[alive, None] * q + span[:, size:].astype(np.intp)]
        key = np.column_stack([group, block])
        _, group, count = np.unique(_rows(key), return_inverse=True, return_counts=True)
        shared = count[group] > 1
        alive, span, group = alive[shared], span[shared], group[shared]
    order = np.argsort(group, kind="stable")
    group, alive, span = group[order], alive[order], span[order].astype(np.intp)
    start = _starts(group)
    rep = np.flatnonzero(start)[np.cumsum(start) - 1]  # first of each group
    dup = np.flatnonzero(rep != np.arange(len(group)))
    auts = np.empty((len(dup), q), dtype=np.uint8)
    auts[np.arange(len(dup))[:, None], span[rep[dup]]] = span[dup]
    return alive[rep[dup]], alive[dup], auts


def _pool(auts, aut_row):
    """The distinct automorphisms other than the identity, sorted by row."""
    moved = (auts != np.arange(auts.shape[1], dtype=np.uint8)).any(axis=1)
    auts, aut_row = auts[moved], aut_row[moved]
    _, first = np.unique(_rows(np.column_stack([aut_row, auts])), return_index=True)
    first = first[np.argsort(aut_row[first], kind="stable")]
    return auts[first], aut_row[first]


def _expand(start, count):
    """For every o, the indices start[o] .. start[o] + count[o] - 1, with
    the o each belongs to."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, start[owner] + np.arange(len(owner)) - (np.cumsum(count) - count)[owner]


def _sibling_links(q: int, row, span, parent, c, several, auts, aut_row):
    """Edges x -- y between children of one parent P, among the children
    several, wherever a found automorphism that fixes P maps x to y.  The
    (parent, automorphism) pairs are tried about PAIR_SLICE at a time."""
    _, first_child, n_child = np.unique(parent[several], return_index=True,
                                        return_counts=True)
    first_child = several[first_child]
    lo = np.searchsorted(aut_row, row[first_child], "left")
    n_aut = np.searchsorted(aut_row, row[first_child], "right") - lo
    key = parent * q + c  # sorted: children come sorted by (parent, c)
    edges = []
    step = max(1, PAIR_SLICE // max(1, int(n_aut.max())))
    for part in (slice(at, at + step) for at in range(0, len(lo), step)):
        first, count = first_child[part], n_child[part]
        pair, g = _expand(lo[part], n_aut[part])  # (parent, automorphism of its row)
        basis = span[first][:, 1 << np.arange(span.shape[1].bit_length() - 2)]
        fixed = (auts[g[:, None], basis[pair]] == basis[pair]).all(axis=1)
        pair, g = pair[fixed], g[fixed]
        which, x = _expand(first[pair], count[pair])
        edges.append((x, np.searchsorted(key, parent[x] * q + auts[g[which], c[x]])))
    return edges


def _prune(flat, q: int, row, span, parent, c, auts, aut_row, probe: bool):
    """The children (partial bases span, sorted by (parent, c), of rows
    row) to keep, and the automorphisms found so far with their rows
    (sorted by row).

    With probe, the children of every row that has several are probed,
    PAIR_SLICE at a time, so two children probed in different steps are
    linked only through an automorphism."""
    start = _starts(row)
    rid = np.cumsum(start) - 1
    several = np.flatnonzero(np.bincount(rid)[rid] > 1)
    if not len(several):
        return np.arange(len(row)), auts, aut_row
    links = [(np.empty(0, dtype=np.intp),) * 2]
    if probe:
        for lo in range(0, len(several), PAIR_SLICE):
            part = several[lo:lo + PAIR_SLICE]
            a, b, new = _probe(flat, q, row[part], span[part])
            links.append((part[a], part[b]))
            auts, aut_row = _pool(np.concatenate([auts, new]),
                                  np.concatenate([aut_row, row[part[a]]]))
    if len(auts):
        links += _sibling_links(q, row, span, parent, c, several, auts, aut_row)
    a, b = (np.concatenate(e) for e in zip(*links))
    label = _components(len(row), a, b)
    return np.flatnonzero(label == np.arange(len(row))), auts, aut_row


def _search(counts: np.ndarray, k: int, greedy: bool = False) -> np.ndarray:
    """Canonical forms of the rows of a nonempty (R, 2^k) integer array;
    or, greedy, each row serialized along its first least-block path."""
    q = 1 << k
    flat = counts.ravel()
    row = np.arange(len(counts))              # row of each tied partial basis
    span = np.zeros((len(counts), 1), dtype=np.uint8)  # span[b, x] = T(x), x < 2^j
    if greedy:
        return np.take_along_axis(
            counts, _greedy_bases(flat, q, row, span).astype(np.intp), axis=1)
    out = counts.copy()
    auts = np.empty((0, q), dtype=np.uint8)  # automorphisms found, as permutations
    aut_row = np.empty(0, dtype=np.intp)
    for j in range(k):
        b, c, out[:, 1 << j:2 << j] = _least_pairs(flat, q, row, span, row)
        if j + 1 < k:  # the last level needs only the least block
            span, row = _extend(span[b], c), row[b]
            probe = k > 4 and j + 4 <= k
            if len(row) > len(counts) and (probe or len(auts)):  # a row holds several
                keep, auts, aut_row = _prune(flat, q, row, span, b, c, auts, aut_row, probe)
                row, span = row[keep], span[keep]
    return out


def _distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array."""
    _, first = np.unique(_rows(rows), return_index=True)
    return rows[first]


def _blocks(arrays, size: int):
    """The rows of a list of 2-D arrays, in order, stacked size at a time
    (the last block may hold fewer): a block gathers its rows across the
    arrays' boundaries, so only one block is ever copied."""
    parts, held = [], 0
    for a in arrays:
        while len(a):
            parts.append(a[:size - held])
            a = a[len(parts[-1]):]
            held += len(parts[-1])
            if held == size:
                yield np.vstack(parts)
                parts, held = [], 0
    if held:
        yield np.vstack(parts)


def canonical_classes(arrays, k: int) -> np.ndarray:
    """The distinct canonical forms among the rows of a list of (R, 2^k)
    multiplicity arrays.

    A greedy pass first moves every row along one least-block path: the
    rows of one orbit land on few vectors of it, and only the distinct
    ones are searched in full.  The greedy pass runs GREEDY_BLOCK rows at
    a time, gathered across the arrays, and keeps each block's distinct
    results, so memory follows one block and the number of distinct
    greedy forms, not the number of rows."""
    if k > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at k={CANONICAL_CAP}")
    near = [_distinct(_search(block.astype(np.int32), k, greedy=True))
            for block in _blocks(arrays, GREEDY_BLOCK)]
    if not near:
        return np.empty((0, 1 << k), dtype=np.int32)
    return _distinct(_search(_distinct(np.vstack(near)), k))


def canonical_counts(counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Lexicographically least multiplicity vector in the GL(k,2) orbit."""
    row = np.array(counts, dtype=np.int32).reshape(1, 1 << k)
    return tuple(canonical_classes([row], k)[0].tolist())


def counts_keys(k: int, vecs) -> list[bytes]:
    """The class key of each row of an (R, 2^k) array of canonical
    multiplicity vectors, written in one array pass: k as one byte, then
    the length (the row's sum) and every count as big-endian uint16."""
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, 1 << k)
    lengths = vecs.sum(axis=1)
    if (lengths >> 16).any():
        raise ValueError("a class key needs a length below 2^16")
    keys = np.empty((len(vecs), 3 + (2 << k)), dtype=np.uint8)
    keys[:, 0] = k
    keys[:, 1:3] = lengths.astype(">u2")[:, None].view(np.uint8)
    keys[:, 3:] = vecs.astype(">u2").view(np.uint8)
    raw, size = keys.tobytes(), keys.shape[1]
    return [raw[i * size:(i + 1) * size] for i in range(len(vecs))]


def canonical_key(tm) -> bytes:
    """The class key of a code.TypeMultiplicity."""
    return counts_keys(tm.k, [canonical_counts(tm.counts, tm.k)])[0]
