"""Independent oracles and matrix helpers used by the tests.

Nothing here shares enumeration logic with the package: compositions
are read off bar positions, subspaces are walked through their unique
reduced-echelon generators, one-step extensions through every vector
of F2^n and every codeword, or through every row of the seed's
column-type box, and equivalence is decided by trying every
column permutation.  For k <= 4 the whole group GL(k,2) is tabulated,
so orbit minima and automorphism group orders are computed by brute
force too.  Every labelled vector of a level is walked type by type,
with no orbit rule, for the orbit-stabilizer count.  Canonical forms
are also searched without automorphism pruning, every tied partial
basis carried to the next level.  A matrix is built from runs of equal
columns one run at a time, and its GF(2) Gram one entry at a time.
Hill-climbing moves are scored by adding every move's weight change to
every message, and the parity Gram of a column multiset is summed type
by type.  Reduced echelon forms are found on lists of bits, by forward
elimination and then back substitution.  The Griesmer maximum is found
by bisection over 1..n.  A matrix is built column by column, octal
strings are decoded one bit at a time, and the orbit-rule compositions
of the Walsh-Hadamard branch are built one (j, l) pair at a time, each
from compositions read off bar positions.  Codewords are walked in Gray
order, one row XOR a message, and column types are read one column at
a time.  A classification's records become codes one at a time.
Integer determinants are taken by fraction-free (Bareiss) elimination,
one matrix at a time, on the small exact integer matrix IntMatrix.
Reduced echelon forms of row ints are found one matrix at a time by
rref, the oracle for the package's batched gf2.rref_stack; nullspace,
dual and shorten build on it.

Two helpers are the row-at-a-time faces of package code rather than
independent oracles: canonical_rows gives the canonical form of each
row of an array through the package's search, where the package keeps
only the distinct classes, and counts_key packs a class key one field
at a time with struct, where the package writes a whole stack of keys
in one array pass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

import numpy as np

from lcdlab.bounds import griesmer_sum
from lcdlab.canonical import CANONICAL_CAP, _rows, _search
from lcdlab.code import LinearCode, TypeMultiplicity, sign_matrix
from lcdlab.gf2 import BitMatrix

CHUNK_BITS = 18
GL_TABLE_CAP = 4  # |GL(4,2)| = 20160 rows
BOX_CHUNK = 1 << 16  # box rows box_scan scores per step
PAIR_SLICE = 1 << 16  # (partial basis, image) pairs tied_search scores per step


def canonical_rows(rows, k: int) -> np.ndarray:
    """Canonical form of every row of an (R, 2^k) multiplicity array, row
    for row, by the package's search: a greedy pass moves every row
    along one least-block path, and the distinct results are searched in
    full."""
    if k > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at k={CANONICAL_CAP}")
    counts = np.array(rows, dtype=np.int32).reshape(len(rows), 1 << k)
    if not len(counts):
        return counts
    near = _search(counts, k, greedy=True)
    _, first, back = np.unique(_rows(near), return_index=True, return_inverse=True)
    return _search(near[first], k)[back]


def counts_key(n: int, k: int, canon: tuple[int, ...]) -> bytes:
    """The class key of a canonical multiplicity vector, packed one field
    at a time."""
    return struct.pack(">BH", k, n) + b"".join(struct.pack(">H", c) for c in canon)


@dataclass(frozen=True)
class IntMatrix:
    """Small dense matrix with exact integer entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry shape mismatch")


def griesmer_dmax_bisect(n: int, k: int) -> int:
    """Largest d in 1..n with griesmer_sum(d, k) <= n, by bisection
    (the sum grows with d)."""
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if griesmer_sum(mid, k) <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def compositions_oracle(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every vector in Z_{>=0}^parts summing to total, in lexicographic
    order: parts - 1 bars among total + parts - 1 slots, the parts being
    the gaps between them (stars and bars), with the bar positions taken
    in lexicographic order."""
    out = []
    for bars in combinations(range(total + parts - 1), parts - 1):
        edges = (-1,) + bars + (total + parts - 1,)
        out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out


def ordered_compositions(total: int, parts: int, most: int) -> np.ndarray:
    """The compositions u of total into parts >= 3 parts with u[0] <= most
    and u[0] <= u[1] <= u[i] for every i >= 2, lexicographic, as int16:
    u = (j, j + l, j + l + r) for each pair (j, l) in turn and each
    composition r of total - parts j - (parts - 1) l into parts - 2 parts."""
    blocks = []
    for j in range(min(most, total // parts) + 1):
        for l in range((total - parts * j) // (parts - 1) + 1):
            rest = total - parts * j - (parts - 1) * l
            for r in compositions_oracle(rest, parts - 2):
                blocks.append((j, j + l) + tuple(x + j + l for x in r))
    return np.array(blocks, dtype=np.int16)


def labelled_vectors(n: int, k: int, d: int) -> np.ndarray:
    """Every multiplicity vector (zero columns, then types 1 .. 2^k - 1)
    of n columns whose least message weight is exactly d, with no orbit
    rule, as an int16 array.

    The zero columns are placed first and then the types from the last
    down, each with every count the columns left allow, so the types
    still to come span ever smaller subspaces and the messages
    orthogonal to all of them are complete early.  Each of the L columns
    still to place adds 1 to the weight of exactly 2^(k-1) messages, so
    a prefix is dropped once the weights it leaves below d, summed, need
    more than 2^(k-1) L, once some message can no longer reach d (by L
    if a type to come covers it, else not at all), or once every
    message is already above d."""
    q = 1 << k
    order = [0] + list(range(q - 1, 0, -1))
    messages = np.arange(1, q)
    covers = (np.bitwise_count(messages[:, None] & np.arange(q)) & 1).T.astype(np.int16)
    counts = np.zeros((1, 0), dtype=np.int16)
    weights = np.zeros((1, q - 1), dtype=np.int16)
    left = np.array([n], dtype=np.int16)
    for i, t in enumerate(order):
        if i < q - 1:
            size = left.astype(np.int64) + 1
            parent = np.repeat(np.arange(len(left)), size)
            c = (np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)).astype(np.int16)
        else:  # the last type takes every column left
            parent, c = np.arange(len(left)), left
        counts = np.column_stack([counts[parent], c])
        weights = weights[parent] + c[:, None] * covers[t]
        left = left[parent] - c
        reach = covers[order[i + 1:]].any(axis=0) * left[:, None]  # the most each message gains
        short = np.maximum(d - weights, 0)
        live = ((short.sum(axis=1) <= (q >> 1) * left.astype(np.int64))
                & (short <= reach).all(axis=1) & (weights.min(axis=1) <= d))
        counts, weights, left = counts[live], weights[live], left[live]
    return counts[weights.min(axis=1) == d][:, np.argsort(order)]


def subspace_class_counts(n: int, k: int) -> dict[int, int]:
    """Number of permutation-equivalence classes of [n, k] codes per
    minimum weight, by exhaustive subspace enumeration."""
    hists: set[tuple[int, ...]] = set()
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(n)
                if j > pivots[i] and j not in pivots]
        f = len(free)
        for lo in range(0, 1 << f, 1 << CHUNK_BITS):
            hi = min(1 << f, lo + (1 << CHUNK_BITS))
            w = np.arange(lo, hi, dtype=np.uint32)
            types = np.zeros((hi - lo, n), dtype=np.int64)
            for i, p in enumerate(pivots):
                types[:, p] = 1 << i
            for bit, (i, j) in enumerate(free):
                types[:, j] |= ((w >> bit) & 1).astype(np.int64) << i
            offs = types + (np.arange(hi - lo, dtype=np.int64)[:, None] << k)
            counts = np.bincount(offs.ravel(),
                                 minlength=(hi - lo) << k).reshape(-1, 1 << k)
            counts = counts.astype(np.int16)
            _, first = np.unique(counts.view(f"V{counts.itemsize << k}").ravel(),
                                 return_index=True)
            hists.update(tuple(int(x) for x in row) for row in counts[first])
    hists = list(hists)
    by_d: dict[int, set[tuple[int, ...]]] = {}
    for counts, canon in zip(hists, canonical_rows(hists, k)):
        d = min(_message_weight(counts, k, m) for m in range(1, 1 << k))
        by_d.setdefault(d, set()).add(tuple(int(x) for x in canon))
    return {d: len(classes) for d, classes in by_d.items()}


def _message_weight(counts, k: int, m: int) -> int:
    return sum(c for v, c in enumerate(counts)
               if v and (m & v).bit_count() & 1)


def _apply_column_perm(rows, n: int, perm) -> tuple[int, ...]:
    out = []
    for r in rows:
        acc = 0
        for j in range(n):
            if (r >> j) & 1:
                acc |= 1 << perm[j]
        out.append(acc)
    return tuple(out)


def perm_equivalent(c1: LinearCode, c2: LinearCode) -> bool:
    """Equivalence by trying all column permutations (n <= 8 sane)."""
    if (c1.n, c1.k) != (c2.n, c2.k):
        return False
    target = c2.generator.data
    n = c1.n
    for perm in permutations(range(n)):
        rows = _apply_column_perm(c1.generator.data, n, perm)
        if rref(BitMatrix(c1.k, n, rows)).matrix.data == target:
            return True
    return False


def min_weight(rows) -> int:
    """Least weight over every nonzero combination of the rows."""
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    return min(bin(w).count("1") for w in words[1:])


def extension_classes(gen_rows, n1: int, d: int) -> set[tuple[bytes, int]]:
    """(class key, minimum weight) of span((1|v), 0-prefixed seed rows)
    for every v in F2^n1 whose extension has minimum weight >= d."""
    k = len(gen_rows) + 1
    found = set()
    for v in range(1 << n1):
        rows = (1 | (v << 1),) + tuple(r << 1 for r in gen_rows)
        w = min_weight(rows)
        if w < d:
            continue
        counts = [0] * (1 << k)
        for j in range(n1 + 1):
            counts[sum(((r >> j) & 1) << i for i, r in enumerate(rows))] += 1
        found.add((tuple(counts), w))
    found = list(found)
    canon = canonical_rows([counts for counts, _ in found], k)
    return {(counts_key(n1 + 1, k, tuple(int(x) for x in c)), w)
            for c, (_, w) in zip(canon, found)}


def _box_rows(radix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the box of vectors 0 <= x < radix, last entry fastest."""
    idx = np.arange(lo, hi, dtype=np.int64)
    out = np.empty((hi - lo, len(radix)), dtype=np.int32)
    for j in range(len(radix) - 1, -1, -1):
        idx, out[:, j] = np.divmod(idx, radix[j])
    return out


def box_scan(gen_rows: tuple[int, ...], n1: int, k1: int, seed_d: int, d: int):
    """What classify._extend_seed returns, by scoring every row of the
    seed's type box 0 <= x <= c (x capped at c/2 on the unit types) in
    lexicographic order: each chunk is an outer part times a fixed inner
    block, and a row is kept when its least coset weight is >= d - 1."""
    k = k1 + 1
    seed = LinearCode(BitMatrix(k1, n1, gen_rows))
    c = np.array(seed.column_types().counts, dtype=np.int64)
    radix = c + 1
    unit = 1 << np.arange(k1)
    radix[unit] = c[unit] // 2 + 1
    sign = sign_matrix(k1).astype(np.int32)
    const = (sign < 0).astype(np.int32) @ c.astype(np.int32)
    types = np.flatnonzero(radix > 1)
    split, size = len(types), 1
    while split and size * radix[types[split - 1]] <= BOX_CHUNK:
        split -= 1
        size *= int(radix[types[split]])
    outer, inner = types[:split], types[split:]
    x_in = _box_rows(radix[inner], 0, size)
    w_in = sign[:, inner] @ x_in.T  # (messages, inner rows)
    total = int(np.prod(radix[outer]))
    step = max(1, BOX_CHUNK // size)
    hists, minws = [], []
    for lo in range(0, total, step):
        x_out = _box_rows(radix[outer], lo, min(lo + step, total))
        w_out = sign[:, outer] @ x_out.T + const[:, None]
        coset_w = w_out[0][:, None] + w_in[0][None, :]
        for m in range(1, 1 << k1):
            np.minimum(coset_w, w_out[m][:, None] + w_in[m][None, :], out=coset_w)
        oi, ii = np.nonzero(coset_w >= d - 1)
        if not oi.size:
            continue
        x = np.zeros((oi.size, 1 << k1), dtype=np.int64)
        x[:, outer] = x_out[oi]
        x[:, inner] = x_in[ii]
        hist = np.empty((oi.size, 1 << k), dtype=np.int16)
        hist[:, 1::2] = x
        hist[:, 0::2] = c - x
        hist[:, 1] += 1  # the adjoined coordinate
        hists.append(hist)
        minws.append(np.minimum(seed_d, 1 + coset_w[oi, ii].astype(np.int64)))
    if not hists:
        return (np.empty((0, 1 << k), dtype=np.int16),
                np.empty(0, dtype=np.int64))
    return np.concatenate(hists), np.concatenate(minws)


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


def tied_search(counts: np.ndarray, k: int, greedy: bool = False) -> np.ndarray:
    """Canonical forms of the rows of a nonempty (R, 2^k) integer array;
    or, greedy, each row serialized along the first least-block path.

    The breadth-first search over basis images with no automorphism
    pruning: every partial basis tied for the least prefix goes on to
    the next level, PAIR_SLICE (partial basis, image) pairs at a time."""
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



@cache
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
                extend(rows + [r], span | {r ^ s for s in span})

    extend([], {0})
    return tuple(mats)


@cache
def gl2_type_permutations(k: int) -> np.ndarray:
    """(|GL(k,2)|, 2^k) array: row g maps type index x to its image under g."""
    rows = np.array(gl2_matrices(k), dtype=np.uint8)[:, :, None]
    parity = np.bitwise_count(rows & np.arange(1 << k, dtype=np.uint8)) & 1
    shift = np.arange(k, dtype=np.uint8)[:, None]
    return (parity << shift).sum(axis=1, dtype=np.uint8)


def aut_order(counts, k: int) -> int:
    """Number of basis changes that fix the multiplicity vector, over the
    whole GL(k,2) table."""
    perms = gl2_type_permutations(k)
    return int((np.asarray(counts)[perms] == np.asarray(counts)).all(axis=1).sum())


def orbit_minimum(counts, k: int) -> tuple[int, ...]:
    """Least multiplicity vector in the GL(k,2) orbit, over the whole table."""
    images = np.asarray(counts, dtype=np.int64)[gl2_type_permutations(k)]
    return tuple(int(x) for x in np.unique(images, axis=0)[0])


def neighbour_scores(counts, k: int) -> np.ndarray:
    """Score of every hill-climbing move i -> j of one column between
    nonzero types, by adding each move's weight change to every message:
    2^10 times the new minimum weight, less the messages at it; moves from
    an empty type and i -> i score -1."""
    nonzero = np.arange(1, 1 << k)
    a = (np.bitwise_count(nonzero[:, None] & nonzero) & 1).astype(np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    w = a @ counts
    neigh = w[None, None, :] + (a.T[None, :, :] - a.T[:, None, :])  # (from, to, messages)
    minw = neigh.min(axis=2)
    score = (1 << 10) * minw - (neigh == minw[:, :, None]).sum(axis=2)
    score[counts == 0, :] = -1
    np.fill_diagonal(score, -1)
    return score


def type_permutation(mat_rows: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Permutation on the 2^k column types induced by a basis change."""
    perm = [0] * (1 << k)
    for v in range(1, 1 << k):
        perm[v] = sum(((mat_rows[i] & v).bit_count() & 1) << i for i in range(k))
    return tuple(perm)


def parity_gram(tm: TypeMultiplicity) -> BitMatrix:
    """G G^T over GF(2) for every generator G realizing the multiset.

    Each column of type t adds t t^T, so only the types of odd count
    are left: row i is the sum of the odd types t with bit i set."""
    rows = [0] * tm.k
    for t, c in enumerate(tm.counts):
        if c & 1:
            for i in range(tm.k):
                if t >> i & 1:
                    rows[i] ^= t
    return BitMatrix(tm.k, tm.k, tuple(rows))


@dataclass(frozen=True)
class RrefResult:
    matrix: BitMatrix
    rank: int
    pivots: tuple[int, ...]


def rref(m: BitMatrix) -> RrefResult:
    """Reduced row-echelon form over GF(2), one matrix of row ints at a
    time: the oracle for gf2.rref_stack.

    Returns the reduced matrix (same shape, zero rows kept at the
    bottom), the rank, and the pivot column indices.  Each column in
    turn takes the first remaining row with it set as its pivot row and
    is cleared in every other row; no column pivoting."""
    rows = list(m.data)
    height = m.rows
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == height:
            break
        bit = 1 << c
        for p in range(r, height):
            if rows[p] & bit:
                break
        else:
            continue
        piv = rows[p]
        rows[p] = rows[r]
        rows[r] = piv
        for i in range(height):
            if i != r and rows[i] & bit:
                rows[i] ^= piv
        pivots.append(c)
        r += 1
    return RrefResult(BitMatrix(m.rows, m.cols, tuple(rows)), r, tuple(pivots))


def nullspace(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel, one vector per row ((cols - rank) rows):
    each free column f, with the pivot columns of the reduced rows that
    have f set."""
    red = rref(m)
    pivots = red.pivots
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivot_set):
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red.matrix.data[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(len(basis), m.cols, tuple(basis))


def dual(code: LinearCode) -> LinearCode:
    """The orthogonal complement under the standard mod-2 inner product."""
    return LinearCode(rref(nullspace(code.generator)).matrix, _reduced=True)


def shorten(code: LinearCode, i: int) -> LinearCode:
    """Codewords that are 0 in coordinate i, with that coordinate deleted:
    a row with i set is XORed into every other such row and dropped."""
    if not 0 <= i < code.n:
        raise ValueError(f"coordinate {i} out of range")
    bit = 1 << i
    rows = list(code.generator.data)
    p = next((j for j in range(code.k) if rows[j] & bit), None)
    if p is not None:
        piv = rows[p]
        rows = [r ^ piv if r & bit else r for j, r in enumerate(rows) if j != p]
    low = bit - 1
    rows = [(r & low) | ((r >> 1) & ~low) for r in rows]
    return LinearCode(BitMatrix(len(rows), code.n - 1, tuple(rows)))


def rref_lists(m: BitMatrix) -> tuple[list[list[int]], int, tuple[int, ...]]:
    """(reduced row-echelon form as 0/1 lists, rank, pivot columns) of m:
    forward elimination clears each pivot's column below it, then back
    substitution, from the last pivot up, clears it above."""
    a = to_lists(m)
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        below = [i for i in range(r, m.rows) if a[i][c]]
        if not below:
            continue
        a[r], a[below[0]] = a[below[0]], a[r]
        for i in range(r + 1, m.rows):
            if a[i][c]:
                a[i] = [x ^ y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    for r in reversed(range(len(pivots))):
        for i in range(r):
            if a[i][pivots[r]]:
                a[i] = [x ^ y for x, y in zip(a[i], a[r])]
    return a, len(pivots), tuple(pivots)


def from_columns(rows: int, cols: list[int]) -> BitMatrix:
    """The matrix with the given column ints: bit i of column j is entry
    (i, j), and bits at i >= rows are dropped.  Equal columns are
    gathered into one mask of their positions, and each mask is set in
    the rows of its column's set bits."""
    where: dict[int, int] = {}
    for j, c in enumerate(cols):
        where[c] = where.get(c, 0) | 1 << j
    data = [0] * rows
    mask = (1 << rows) - 1
    for c, at in where.items():
        c &= mask
        while c:
            low = c & -c
            data[low.bit_length() - 1] |= at
            c ^= low
    return BitMatrix(rows, len(cols), tuple(data))


def decode_octal(s: str, n: int, k: int) -> BitMatrix:
    """The k x (n-k) block an octal string writes, one bit at a time:
    3 bits per octal digit, most significant first, then at most two
    remainder letters a=0, b=1, raising the codec's ValueError messages."""
    want = k * (n - k)
    bits = []
    letters = 0
    for ch in s:
        if ch in "01234567":
            if letters:
                raise ValueError(f"octal digit after remainder letter in {s!r}")
            bits.append(format(int(ch, 8), "03b"))
        elif ch in "ab":
            letters += 1
            if letters > 2:
                raise ValueError(f"more than two remainder letters in {s!r}")
            bits.append("01"["ab".index(ch)])
        else:
            raise ValueError(f"bad symbol {ch!r} in octal string")
    flat = "".join(bits)
    if len(flat) != want:
        raise ValueError(
            f"octal string yields {len(flat)} bits, need {want} for k={k}, n={n}")
    width = n - k
    rows = [flat[i * width:(i + 1) * width] for i in range(k)]
    return BitMatrix.from_rows([[int(c) for c in r] for r in rows])


def column(m: BitMatrix, j: int) -> int:
    """Column j packed into an int: bit i is entry (i, j)."""
    return sum(((r >> j) & 1) << i for i, r in enumerate(m.data))


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix(m.cols, m.rows, tuple(column(m, j) for j in range(m.cols)))


def column_types(code: LinearCode) -> TypeMultiplicity:
    """The code's column multiset, read one column at a time."""
    counts = [0] * (1 << code.k)
    for j in range(code.n):
        counts[column(code.generator, j)] += 1
    return TypeMultiplicity(code.k, tuple(counts))


def codes(db) -> list[LinearCode]:
    """The representative of each record of a CodeDB, as a LinearCode."""
    return [LinearCode(BitMatrix(db.k, db.n, rows), _reduced=True)
            for _, rows in db.records]


def codewords(rows):
    """Every combination of the rows (row ints, not necessarily
    independent), one per message, in Gray order from 0: each step XORs
    in the row of the bit that changes."""
    cw = 0
    prev = 0
    yield 0
    for m in range(1, 1 << len(rows)):
        g = m ^ (m >> 1)
        cw ^= rows[(g ^ prev).bit_length() - 1]
        prev = g
        yield cw


def to_lists(m: BitMatrix) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.data]


def mod2(m: IntMatrix) -> BitMatrix:
    return BitMatrix.from_rows([[e & 1 for e in row] for row in m.entries])


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2): result row i = XOR of B-rows selected by A row i."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = []
    for arow in a.data:
        acc = 0
        for j in range(a.cols):
            if (arow >> j) & 1:
                acc ^= b.data[j]
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def gram(g: BitMatrix) -> BitMatrix:
    """G * G^T over GF(2): entry (i, j) is the parity of the ones rows i
    and j share."""
    return BitMatrix(g.rows, g.rows, tuple(
        sum(((ri & rj).bit_count() & 1) << j for j, rj in enumerate(g.data))
        for ri in g.data))


def from_runs(rows: int, runs) -> BitMatrix:
    """The matrix of runs of equal columns, one run at a time: for each
    (t, c) of runs, in order, c consecutive columns of type t, which set
    those c bits in row i when bit i of t is set (t < 2^rows)."""
    data = [0] * rows
    start = 0  # column of the next run
    for t, c in runs:
        run = ((1 << c) - 1) << start
        start += c
        while t:
            low = t & -t
            data[low.bit_length() - 1] |= run
            t ^= low
    return BitMatrix(rows, start, tuple(data))


def int_gram(g: BitMatrix) -> IntMatrix:
    """G * G^T over the integers: entry (i, j) counts the ones rows i and
    j share.  Reduced mod 2 it is the GF(2) Gram matrix."""
    return IntMatrix(g.rows, g.rows, tuple(
        tuple((ri & rj).bit_count() for rj in g.data) for ri in g.data))


def det_int(m: IntMatrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r][r] == 0:
            p = next((i for i in range(r + 1, n) if a[i][r] != 0), None)
            if p is None:
                return 0
            a[r], a[p] = a[p], a[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[r][r] * a[i][j] - a[i][r] * a[r][j]) // prev
            a[i][r] = 0
        prev = a[r][r]
    return sign * a[n - 1][n - 1]


def instantiate(swe, t: int) -> dict[int, int]:
    """The weight enumerator {weight: count} a SymbolicWE gives at t."""
    out = {0: 1}
    for mult, e in swe.terms:
        out[e(t)] = out.get(e(t), 0) + mult
    return out


def poly_eval(p, t: int) -> int:
    """The integer polynomial p (coefficients ascending) at t."""
    acc = 0
    for c in reversed(p):
        acc = acc * t + c
    return acc
