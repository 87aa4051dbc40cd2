"""Stopping conditions and runtime counters for PathFinder runs.

Four stopping conditions, checked in order after every query and new start:
  S1  the current path length reached target_length;
  S2  the query clock reached T0;
  S3  the number of new starts R_t reached 2(k-j)! sqrt(t n^beta / n^(k-j)) + n^beta/2;
  S4  some i-set I with i < j has discovered-degree d_t(I) >= C_i t / n^(k-j+i) + n^beta.
A hard query budget is enforced alongside S2 and reported as its own reason.

S3 and S4 compare a quantity that only moves on discovery events against a
threshold that is increasing in t, so checking them exactly at discovery
events (and S4 only for the i-sets just touched) is equivalent to checking
after every query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

S1, S2, S3, S4 = "S1", "S2", "S3", "S4"
EXHAUSTED = "exhausted"
BUDGET = "budget"

STOP_REASONS = (S1, S2, S3, S4, EXHAUSTED, BUDGET, "n/a")


def default_c_ladder(k: int, j: int) -> tuple[float, ...]:
    """Degree-condition constants: C_0 = 40 ((k-j)!)^2, then
    C_i = 2^(3k+4) k! C_{i-1}; strictly increasing by construction."""
    c = 40.0 * math.factorial(k - j) ** 2
    ladder = [c]
    for _ in range(1, j):
        c *= 2 ** (3 * k + 4) * math.factorial(k)
        ladder.append(c)
    return tuple(ladder)


@dataclass(frozen=True)
class StoppingConfig:
    target_length: float = math.inf
    T0: float = math.inf
    beta: float = 0.1
    c_ladder: tuple[float, ...] = ()
    enabled: frozenset = frozenset({S1, S2, S3, S4})
    budget: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not self.target_length >= 0:  # NaN fails too: S1 could never fire
            raise ValueError(f"target_length must be >= 0, got {self.target_length}")
        if not self.T0 >= 0:  # likewise S2
            raise ValueError(f"T0 must be >= 0, got {self.T0}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if any(a >= b for a, b in zip(self.c_ladder, self.c_ladder[1:])):
            raise ValueError("C ladder must be strictly increasing")

    @classmethod
    def standard(
        cls,
        n: int,
        k: int,
        j: int,
        eps: float,
        delta: float = 0.5,
        budget: Optional[int] = None,
        enabled: Iterable[str] = (S1, S2, S3, S4),
    ) -> "StoppingConfig":
        """Supercritical run parameters for j >= 2: stop at (1-delta) eps
        n/(k-j)^2 or after n^(k-j+1)/eps queries."""
        if j == 1:  # S1's curve is theorem_bounds' supercritical_lower_j>=2
            raise ValueError("standard stopping is defined for j >= 2; use loose at j = 1")
        return cls._paper_rule(n, k, j, eps, delta, budget, enabled)

    @classmethod
    def loose(
        cls,
        n: int,
        k: int,
        j: int,
        eps: float,
        delta: float = 0.5,
        budget: Optional[int] = None,
        enabled: Iterable[str] = (S1, S2, S3, S4),
    ) -> "StoppingConfig":
        """Loose-path (j = 1) run parameters: target (1-delta) eps^2 n/(4(k-1)^2),
        time cap eps n C(n-1, k-1) / (2(k-1))."""
        if j != 1:
            raise ValueError("loose stopping is defined for j = 1")
        return cls._paper_rule(n, k, j, eps, delta, budget, enabled)

    @classmethod
    def _paper_rule(cls, n, k, j, eps, delta, budget, enabled) -> "StoppingConfig":
        """The body of ``standard`` (j >= 2) and ``loose`` (j = 1)."""
        if not (eps > 0 and 0 < delta < 1):  # NaN fails; S1's target is below the paper's
            rule = "loose" if j == 1 else "standard"
            raise ValueError(f"{rule} stopping needs eps > 0 and 0 < delta < 1, got {eps}, {delta}")
        if j == 1:
            target = (1 - delta) * eps**2 * n / (4 * (k - 1) ** 2)
            T0 = eps * n * math.comb(n - 1, k - 1) / (2 * (k - 1))
        else:
            target, T0 = (1 - delta) * eps * n / (k - j) ** 2, n ** (k - j + 1) / eps
        return cls(target_length=target, T0=T0, c_ladder=default_c_ladder(k, j),
                   enabled=frozenset(enabled), budget=budget)

    @classmethod
    def unbounded(cls, budget: Optional[int] = None) -> "StoppingConfig":
        """Run until exhaustion (or an optional hard budget)."""
        return cls(enabled=frozenset(), budget=budget)


class DegreeTracker:
    """d_t(I) = number of discovered j-sets containing the i-set I, for all
    0 <= i < j. d(()) equals the total discovered count."""

    def __init__(self, j: int):
        self.j = j
        self.counts: list[dict[tuple, int]] = [dict() for _ in range(j)]

    def update(self, jset: Sequence[int]) -> list[tuple[int, tuple]]:
        """Record one newly discovered j-set; returns the touched (i, I) pairs.
        Novelty is the caller's to check: the search guards its discovered set."""
        t = tuple(jset)
        touched = []
        for i in range(self.j):
            ci = self.counts[i]
            for I in combinations(t, i):
                ci[I] = ci.get(I, 0) + 1
                touched.append((i, I))
        return touched

    def degree(self, I: Sequence[int]) -> int:
        I = tuple(I)
        return self.counts[len(I)].get(I, 0)

    @property
    def discovered_count(self) -> int:
        return self.counts[0].get((), 0)


class Monitor:
    """Evaluates the stopping conditions against a run's counters.

    The search feeds it discovery and new-start events; query-time conditions
    (S2 and the budget) are simple threshold comparisons the search applies
    inline, exposed here as cutoff().
    """

    def __init__(self, n: int, k: int, j: int, config: StoppingConfig):
        self.n, self.k, self.j = n, k, j
        self.config = config
        self.degrees = DegreeTracker(j)
        self.new_starts = 0
        self._touched: list[tuple[int, tuple]] = []
        self._nbeta = float(n) ** config.beta
        if S4 in config.enabled and len(config.c_ladder) < j:
            raise ValueError(f"S4 needs a C ladder of length {j}")

    def cutoff(self) -> float:
        """Largest t the run may reach; queries beyond it are not performed."""
        cut = math.inf
        if S2 in self.config.enabled:
            cut = self.config.T0
        if self.config.budget is not None:
            cut = min(cut, self.config.budget)
        return cut

    def time_reason(self, t: int) -> Optional[str]:
        """Which of S2/budget fired at clock t, respecting check order."""
        if S2 in self.config.enabled and t >= self.config.T0:
            return S2
        if self.config.budget is not None and t >= self.config.budget:
            return BUDGET
        return None

    def on_discover(self, jset: Sequence[int], new_start: bool) -> None:
        if new_start:
            self.new_starts += 1
        self._touched.extend(self.degrees.update(jset))

    def check_stop(self, ell: int, t: int) -> Optional[str]:
        """First triggered condition in order S1, S2, S3, S4, else None."""
        cfg = self.config
        touched, self._touched = self._touched, []
        if S1 in cfg.enabled and ell >= cfg.target_length:
            return S1
        reason = self.time_reason(t)
        if reason is not None:
            return reason
        if S3 in cfg.enabled:
            thresh = (
                2
                * math.factorial(self.k - self.j)
                * math.sqrt(t * self._nbeta / self.n ** (self.k - self.j))
                + self._nbeta / 2
            )
            if self.new_starts >= thresh:
                return S3
        if S4 in cfg.enabled:
            for i, I in touched:
                bound = cfg.c_ladder[i] * t / self.n ** (self.k - self.j + i) + self._nbeta
                if self.degrees.counts[i][I] >= bound:
                    return S4
        return None

