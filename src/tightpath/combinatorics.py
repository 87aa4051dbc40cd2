"""Closed-form calculators for j-tight path quantities.

Everything here is a pure function of (n, k, j, ell, eps, p): structural
parameters of the overlap pattern, automorphism class sizes z_ell, the
threshold probability p0, expected class counts, length-bound curves, and
the canonical block partition of a path.

Conventions: vertices are 0-based ints; a path of length ell has
v = (k-j)*ell + j distinct vertices and edges e_i = windows of k consecutive
vertices starting every k-j positions. Large products are evaluated in log
space; an exact Fraction mode exists for small n so identities can be checked
without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator


class ShortPathError(ValueError):
    """Raised when a path is too short for the block partition (ell < s+2)."""


@dataclass(frozen=True)
class StructuralParams:
    """Overlap structure derived from (k, j).

    a is the unique integer in [1, k-j] with a == k (mod k-j); b = k-j-a;
    s = ceil(k/(k-j)) - 1 is how many edges ahead an edge still intersects;
    r = s - 1 counts the full (k-j)-blocks inside a j-set's tail partition;
    batch_size = C(k-j, a) is the number of j-sets activated per found edge.
    """

    k: int
    j: int
    a: int
    b: int
    s: int
    r: int
    batch_size: int


def structural_params(k: int, j: int) -> StructuralParams:
    if k < 2:
        raise ValueError(f"uniformity k must be >= 2, got {k}")
    if not 1 <= j <= k - 1:
        raise ValueError(f"tightness j must be in [1, {k - 1}], got {j}")
    d = k - j
    a = ((k - 1) % d) + 1
    b = d - a
    s = -(-k // d) - 1
    r = s - 1
    assert a + r * d == j and 1 <= a <= d
    return StructuralParams(k=k, j=j, a=a, b=b, s=s, r=r, batch_size=math.comb(d, a))


def path_vertex_count(k: int, j: int, ell: int) -> int:
    """Number of vertices of a j-tight path with ell edges."""
    if ell < 0:
        raise ValueError(f"length must be >= 0, got {ell}")
    return (k - j) * ell + j


def _log_comb(n: int, m: int) -> float:
    # term by term: lgamma(n+1) - lgamma(n-m+1) cancels catastrophically
    # for the huge-n, small-m shapes this is called with
    out = -math.lgamma(m + 1)
    for i in range(m):
        out += math.log(n - i)
    return out


def threshold_p0(n: int, k: int, j: int) -> float:
    """Phase-transition probability 1 / (C(k-j,a) * C(n-j,k-j))."""
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    sp = structural_params(k, j)
    denom = sp.batch_size * math.comb(n - j, k - j)
    if denom.bit_length() < 1000:
        return 1.0 / float(denom)
    return math.exp(-math.log(sp.batch_size) - _log_comb(n - j, k - j))


def z_ell(k: int, j: int, ell: int) -> int:
    """Exact size of the equivalence class of a length-ell path.

    A class is the set of vertex orderings sharing one edge set. For
    ell >= s+2 the closed form 2/b! * (a! b!)^(ell-s) * ((k-j)!)^(2s) applies
    and is returned as an exact integer. For shorter paths no closed form is
    asserted; the value is delegated to ``oracle.z_ell_bruteforce``, which
    counts the reference path's orderings on the oracle's path walk and
    needs v(ell) <= 11.
    """
    sp = structural_params(k, j)
    if ell >= sp.s + 2:
        return (
            2
            * math.factorial(sp.a) ** (ell - sp.s)
            * math.factorial(sp.b) ** (ell - sp.s - 1)
            * math.factorial(k - j) ** (2 * sp.s)
        )
    from . import oracle

    return oracle.z_ell_bruteforce(k, j, ell)


def expected_path_classes(n: int, k: int, j: int, ell: int, p: float) -> float:
    """E(number of length-ell path classes) = (n)_v * p^ell / z_ell.

    Returns 0 when v(ell) > n (no placement) and for p = 0, ell >= 1.
    Evaluated in log space so it never overflows.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    v = path_vertex_count(k, j, ell)
    if v > n:
        return 0.0
    if p == 0.0 and ell >= 1:
        return 0.0
    log_fall = math.lgamma(n + 1) - math.lgamma(n - v + 1)
    log_val = log_fall + ell * (math.log(p) if ell else 0.0) - math.log(z_ell(k, j, ell))
    return math.exp(log_val)


def expected_path_classes_exact(n: int, k: int, j: int, ell: int, p) -> Fraction:
    """Exact-rational counterpart for cross-checks; intended for n <= 12.

    ``p`` may be a Fraction or a float (floats are converted exactly).
    """
    if n > 12:
        raise ValueError(f"exact mode supports n <= 12, got n={n}")
    v = path_vertex_count(k, j, ell)
    if v > n:
        return Fraction(0)
    pf = Fraction(p)
    if not 0 <= pf <= 1:
        raise ValueError(f"probability out of range: {p}")
    return Fraction(math.perm(n, v)) * pf**ell / z_ell(k, j, ell)


SUBCRITICAL_LOWER = "subcritical_lower"
SUBCRITICAL_UPPER = "subcritical_upper"
SUPERCRITICAL_LOWER = "supercritical_lower_j>=2"
SUPERCRITICAL_UPPER = "supercritical_upper"
LOOSE_LOWER = "loose_lower"


def theorem_bounds(
    n: int,
    k: int,
    j: int,
    eps: float,
    omega: float | None = None,
    delta: float | None = None,
) -> dict[str, float]:
    """All length-bound curves applicable at (n, k, j, eps).

    Subcritical curves (p = (1-eps)p0, need omega > 0):
      lower = (j ln n - omega + 3 ln eps) / (-ln(1-eps))
      upper = (j ln n + omega) / (-ln(1-eps))
    Supercritical curves (p = (1+eps)p0, need 0 < delta < 1):
      lower (j >= 2) = (1-delta) * eps * n / (k-j)^2
      upper          = (1+delta) * 2 * eps * n / (k-j)^2
      loose lower (j = 1 only) = (1-delta) * eps^2 * n / (4 (k-1)^2)

    Values are returned as reals; callers floor them at comparison time.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    structural_params(k, j)
    curves: dict[str, float] = {}

    if omega is not None:
        if not omega > 0:  # NaN fails too
            raise ValueError(f"omega must be > 0, got {omega}")
        rate = -math.log1p(-eps)
        curves[SUBCRITICAL_LOWER] = (j * math.log(n) - omega + 3 * math.log(eps)) / rate
        curves[SUBCRITICAL_UPPER] = (j * math.log(n) + omega) / rate

    if delta is not None:
        if not 0 < delta < 1:  # NaN fails too
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if j >= 2:
            curves[SUPERCRITICAL_LOWER] = (1 - delta) * eps * n / (k - j) ** 2
        curves[SUPERCRITICAL_UPPER] = (1 + delta) * 2 * eps * n / (k - j) ** 2
        if j == 1:
            curves[LOOSE_LOWER] = (1 - delta) * eps**2 * n / (4 * (k - 1) ** 2)
    return curves


@dataclass(frozen=True)
class JTightPath:
    """A j-tight path as its vertex sequence.

    vertices must be distinct and of length (k-j)*ell + j for some ell >= 0;
    the edges are the implied windows, not stored separately.
    """

    k: int
    j: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        structural_params(self.k, self.j)
        rem = len(self.vertices) - self.j
        if rem < 0 or rem % (self.k - self.j):
            raise ValueError(
                f"vertex count {len(self.vertices)} is not j + ell*(k-j) "
                f"for k={self.k}, j={self.j}"
            )
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path vertices must be distinct")

    @property
    def ell(self) -> int:
        return (len(self.vertices) - self.j) // (self.k - self.j)

    def edges(self) -> list[tuple[int, ...]]:
        """Implied edge windows, each as a sorted k-tuple, in path order."""
        d = self.k - self.j
        return [
            tuple(sorted(self.vertices[i * d : i * d + self.k]))
            for i in range(self.ell)
        ]

    def edge_sets(self) -> set[frozenset[int]]:
        return {frozenset(e) for e in self.edges()}


@dataclass(frozen=True)
class PathPart:
    """One block of the canonical partition, in path order."""

    label: str
    vertices: tuple[int, ...]


def partition_path(path: JTightPath) -> list[PathPart]:
    """Split a path into its maximal same-edge-membership blocks.

    Returns, in path order: F_1..F_s (head blocks, size k-j each), then
    A_1, B_1, A_2, ..., B_{ell-s-1}, A_{ell-s} alternating (sizes a and b),
    then G_1..G_s (tail blocks, size k-j). Defined only for ell >= s+2;
    shorter paths raise ShortPathError because their blocks degenerate.
    """
    sp = structural_params(path.k, path.j)
    ell, s = path.ell, sp.s
    if ell < s + 2:
        raise ShortPathError(
            f"partition needs ell >= s+2 = {s + 2}, got ell = {ell}"
        )
    pos = {v: i for i, v in enumerate(path.vertices)}
    edge_sets = [set(e) for e in path.edges()]

    def part(label: str, vs: set[int]) -> PathPart:
        return PathPart(label, tuple(sorted(vs, key=pos.__getitem__)))

    e = lambda i: edge_sets[i - 1]
    parts = [part(f"F{i}", e(i) - e(i + 1)) for i in range(1, s + 1)]
    for i in range(1, ell - s + 1):
        parts.append(part(f"A{i}", e(i) & e(i + s)))
        if i <= ell - s - 1:
            parts.append(part(f"B{i}", e(i + s) - (e(i + s + 1) | e(i))))
    parts.extend(part(f"G{i}", e(ell - s + i) - e(ell - s + i - 1)) for i in range(1, s + 1))
    return parts


def iter_lengths_with_vertex_budget(k: int, j: int, max_v: int) -> Iterator[int]:
    """Yield all ell >= 0 with path_vertex_count(k, j, ell) <= max_v."""
    ell = 0
    while path_vertex_count(k, j, ell) <= max_v:
        yield ell
        ell += 1
