"""Griesmer bound machinery and the ledger of known largest minimum
weights d(n, k) for binary LCD codes.

Exact values come from closed forms (k <= 3, k >= n-4), from the
shipped length-17..24 table, or, for k = 4, 5, where the family weight
meets the Griesmer maximum; between the two, the candidates are those
the nonexistence levels leave.  An exact value below a row's range,
where no family member exists, names its stored witness or census
instead.  Anything else is reported as unknown rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tables
from .families import DIMENSIONS, family_t_min, family_weight

# (n, k, d) with [n, k, d] codes but no LCD one: the fixture levels.  Each
# fixture is non-LCD, and a census of the level finds the fixtures and no
# other class (reproduce --full).
NONEXISTENT_LCD = frozenset((n, k, d) for k, dim in DIMENSIONS.items()
                            for (n, d), _ in dim.generators)


def griesmer_sum(d: int, k: int) -> int:
    return sum((d + (1 << i) - 1) >> i for i in range(k))


def griesmer_dmax(n: int, k: int) -> int:
    """Largest d with sum_{i<k} ceil(d / 2^i) <= n.

    As ceil(x) >= x, griesmer_sum(d, k) >= d (2^k - 1) / 2^(k-1), so every
    feasible d is at most d0 = floor(n 2^(k-1) / (2^k - 1)), and the scan
    steps down from d0.  It takes at most k - 1 steps: the k - 1 ceilings
    with i >= 1 each add less than 1, so griesmer_sum(d, k) <
    d (2^k - 1) / 2^(k-1) + k - 1, which is at most n at d = d0 - (k - 1).
    It stops at d >= 1, as griesmer_sum(1, k) = k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    d = (n << (k - 1)) // ((1 << k) - 1)
    while griesmer_sum(d, k) > n:
        d -= 1
    return d


def closed_form_bound(n: int, k: int) -> int:
    """Case formula for the Griesmer maximum at k = 4 or 5."""
    if k == 4:
        if n < 4:
            raise ValueError("need n >= 4")
        base = 8 * n // 15
        return base if n % 15 in tables.DIM4_BOUND_RESIDUES_0 else base - 1
    if k == 5:
        if n < 5:
            raise ValueError("need n >= 5")
        base = 16 * n // 31
        r = n % 31
        if r in tables.DIM5_BOUND_RESIDUES_0:
            return base
        if r in tables.DIM5_BOUND_RESIDUES_1:
            return base - 1
        return base - 2
    raise ValueError(f"closed form only for k in {{4, 5}}, got {k}")


@dataclass(frozen=True)
class DTableEntry:
    n: int
    k: int
    values: tuple[int, ...]  # singleton when exact, candidates descending
    status: str              # "exact" | "range" | "unknown"
    provenance: str

    @property
    def exact(self) -> int | None:
        return self.values[0] if self.status == "exact" else None


def _exact(n, k, d, why) -> DTableEntry:
    return DTableEntry(n, k, (d,), "exact", why)


def known_lcd_d(n: int, k: int) -> DTableEntry:
    """Largest minimum weight among LCD [n, k] codes, where established."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if k == n:
        return _exact(n, k, 1, "full-space")
    if k == 1:
        return _exact(n, k, n if n % 2 else n - 1, "dimension-1")
    if k == n - 1:
        return _exact(n, k, 2 if n % 2 else 1, "codimension-1")
    if k == 2 and n >= 2:
        d = 2 * n // 3
        return _exact(n, k, d if n % 6 in (1, 2, 3, 4) else d - 1, "dimension-2")
    if k == 3 and n >= 3:
        d = 4 * n // 7
        return _exact(n, k, d if n % 7 in (3, 5) else d - 1, "dimension-3")
    if k == n - 2 and n >= 4:
        return _exact(n, k, 2, "codimension-2")
    if k == n - 3 and n >= 8:
        return _exact(n, k, 2, "codimension-3")
    if k == n - 4 and n >= 16:
        return _exact(n, k, 2, "codimension-4")
    if k in DIMENSIONS:
        # the family member's weight against Griesmer
        s, t, lo = family_weight(k, n)
        hi = griesmer_dmax(n, k)
        if lo == hi:
            if t >= family_t_min(k, s):
                return _exact(n, k, lo, f"dimension-{k}-residue")
            how = "witness" if n in DIMENSIONS[k].lcd_witnesses else "census"
            return _exact(n, k, lo, f"dimension-{k}-{how}")
        if (n, k) not in tables.KNOWN_LCD_D:
            # nonexistence knocks candidates out; a singleton becomes exact
            cands = tuple(d for d in range(hi, lo - 1, -1)
                          if (n, k, d) not in NONEXISTENT_LCD)
            if len(cands) == 1:
                return _exact(n, k, cands[0], f"dimension-{k}-range+nonexistence")
            return DTableEntry(n, k, cands, "range", f"dimension-{k}-range")
    if (n, k) in tables.KNOWN_LCD_D:
        return _exact(n, k, tables.KNOWN_LCD_D[(n, k)], "length-17-24-table")
    return DTableEntry(n, k, (), "unknown", "open")
