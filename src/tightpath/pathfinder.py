"""Depth-first search for j-tight paths driven by edge queries.

The search maintains a partition of all j-sets into neutral (untouched),
active (a LIFO stack), and explored. The outer loop promotes the priority-least
neutral j-set to a new start; the inner loop takes the top-of-stack j-set J and
queries candidate edges K = J u X in priority order, where X ranges over the
(k-j)-sets that are disjoint from the current path (Q2), not yet queried from
J (Q3), and such that K contains no explored j-set (Q4). A scan answers the K
that succeeded; X = K \\ J is derived from it where it is used. A positive
answer appends K as the next path edge and activates a batch of C(k-j, a)
successor j-sets, pushed together above J. Each is new: it is not active,
since it holds a vertex of K \\ J, which was off the path (Q2) where every
active j-set lies, and not explored, since it lies inside K (Q4). When J runs
out of candidates it is explored. A batch is spent, and its edge removed, when
its last member is popped; the stack itself records that, as the record then
on top is the one whose success made the edge, of a smaller edge index.

Candidate priorities are keyed hashes (ties broken by the canonical vertex
tuple), so queries on one k-set never condition the others and a run is a
deterministic function of (backend, seed, config).

The path is stored as blocks: one block of size a, then one of size k-j per
remaining position. Edge e_m equals the last a vertices of block m-1 plus
blocks m..m+r. The blocks are also every active j-set's partition: one of
edge index m is its a vertices C0 in block m plus blocks m+1..m+r, and it
extends exactly when the path again has m edges. Extending moves C0 to the
tail of block m (no existing edge depends on that block's internal order at
that moment) and appends X = K \\ J as a new block, so the found edge's batch
is each a-subset of block -(r+1) joined with the last r blocks. The blocks
hold the path's order; ``in_path``, a boolean array over the vertices, is the
one record of its vertex set, and Q2 reads it.

Q3 is one cursor per active j-set: the (priority, K) of the last candidate
queried from it. Both scans resume past it, a scan cut by S2 or the budget
leaves it at the last query the clock counted, and a scan that runs dry leaves
it past every candidate, so a stopped finder looks the same whichever scan ran.

Each mode has one scan. Checked mode runs the generic (scalar) scan, the
reference, which carries the invariant checks. Both scans drop Q4-dead
candidates before they build them, through ``explored_by``, an index of the
explored j-sets by their proper subsets; the generic scan re-checks each K
against ``explored`` before it queries it. Auto mode runs one vectorized scan
for every (k, j), observationally identical to the generic one at every trace
level. It lays out every candidate of J at once as a ``hypergraph.Candidates``:
the d-subsets of the free vertices around J's vertices, in blocks in which
J's vertices sit at fixed positions of K. Its rows are runs that share K up
to the last X vertex, so a hash of every K reuses the prefix state of each
run and hashes only that vertex and J's vertices after it per row, in
cache-sized slices, instead of k columns per row; the edge coins keep only
their mask. It works in this order: Q4, then the edge coins of all
candidates. The priority hashes are one cached pass, run where they are
first needed: by Q3 on a rescan past a cursor (ahead of the coins), or by a
live success, a full trace, or a cursor to leave at a cut. Nothing depends
on the order of the rows, only on the summary below, and a first scan with
no live success needs no priority at all. The scan reports the queries the
scalar scan would make, in the same order and with the same cutoffs, so
events, counts and traces are identical; a full trace lists them, and a cut
finds its cursor, by sorting the live rows on (priority, K). Its vertex
columns are int32, half the memory traffic of int64; PathFinder therefore
refuses n >= 2^31.

Every vector scan answers from one summary of its live rows past the
cursor: the live successes as sorted (priority, K), and the number of the
other live rows in each gap before, between and after them. The answer is
the first success, after gaps[0] + 1 queries, or exhaustion after gaps[0];
the clock cuts the scan if gaps[0] failed queries reach its stop. A fresh
scan builds the summary from its rows. A scan that ends on a success, below
the trace level full and not cut, stores the rest of it on its record.

A record is scanned again only once the batch its success spawned is
explored and that edge removed, so the path has the same vertex set, and the
only change is the j-sets explored in between. One of them, E, kills the
candidates that hold it: with S = E \\ J off the path, the rows through
J u S. So the record's next scan replays the Q4 kills filed since then
against the stored summary. A kill with |S| = d drops at most one row, a
stored success or one row of its gap, and hashes one priority; one with
|S| = d-1 drops the one-vertex completions of J u S, about n rows whose
priorities it hashes, against the C(n, d) rows whose coins and priorities a
rescan hashes. The scan builds its rows again only where the clock cuts it,
to leave its cursor, or after a kill with |S| < d-1. For j >= k-j the j-sets
a subtree explores share at most j-(k-j) vertices with J, so every kill has
|S| = d. For j < k-j, |S| <= j: at j = k-j-1 (loose paths at k = 3, and
(5, 2)) only the |S| = 1 kills of (5, 2) rescan, and at smaller j ((4, 1),
(5, 1)) every kill does; a record whose subtree files no kill still replays.
"""

from __future__ import annotations

import json
import math
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from ._rng import MASK64, chain64, chain64_np, derive_key
from .combinatorics import JTightPath, StructuralParams, structural_params
from .hypergraph import Candidates, pack_rows, select_subsets
from .monitor import EXHAUSTED, Monitor, StoppingConfig

TRACE_LEVELS = ("summary", "events", "full")
MODES = ("auto", "checked")

BAND = 8192


class ActiveRecord:
    """One active j-set: identity, the index m of the edge whose batch it
    belongs to (0 for a new start), and its Q3 state: the (priority, K) cursor
    of the last candidate queried from it, the same in both scans. Its
    partition is read off the path's blocks: its a vertices in block m, then
    blocks m+1..m+r.

    A batch is pushed all at once, directly above the record whose success
    made edge m, and that record has edge index m-1. So the batch is spent,
    and edge m goes, when a record of edge index m >= 1 is popped and the
    record left on top has a smaller one. Every member is new (see the
    module docstring), so the batch has all C(k-j, a) members.

    A vector scan that ends on a success (below the trace level full, and not
    cut by the clock) also leaves ``resume`` for the record's next scan: the
    rest of its summary past the new cursor (the later live successes as
    (priority, K) and the live-row count of each gap around them), and
    (T, len(explored_by[T])) for every T under which a Q4 kill of J's
    candidates is filed. That is O(successes) ints, never a row.
    """

    __slots__ = ("jset", "edge_index", "order", "cursor", "resume")

    def __init__(self, jset, edge_index):
        self.jset = jset
        self.edge_index = edge_index
        self.order = None  # generic scan: iterator over its cached [(priority, K)]
        self.cursor = None  # (priority, K) last queried from J; past every K once spent
        self.resume = None  # vector scan: (later successes, gap counts, explored_by marks)


def activate_batch(params: StructuralParams, blocks) -> list[tuple]:
    """The batch of the edge just appended to a path of the given blocks:
    each a-subset Z of block -(r+1) joined with the last r blocks.

    The edge K, found from J = C0 u C1 u ... u Cr (C0 in block m, Ci block
    m+i), appended X = K \\ J as the last block. So for r >= 1 the members
    are Z u C2 u ... u Cr u X over the a-subsets Z of C1, and for r = 0 the
    a-subsets of X. Returned as sorted j-sets in canonical order; the search
    itself pushes them in priority order.
    """
    tail = tuple(v for b in blocks[len(blocks) - params.r:] for v in b)
    return sorted(tuple(sorted(Z + tail)) for Z in combinations(blocks[-1 - params.r], params.a))


class _NeutralStream:
    """Yields neutral j-sets in (h, J) order, h = chain64(key, J), skipping
    discovered ones, one hash band at a time.

    The j-sets with h in [lo, hi) are a contiguous run of that order. The
    first band is BAND/C(n, j) of the hash range wide, so a universe of at
    most BAND j-sets is one band; each next band starts where the last ended
    and is 4x wider, so no j-set is yielded twice. A build is one
    ``hypergraph.select_subsets`` walk that keeps the band's j-sets, then
    one hash of those few rows to order them.
    """

    def __init__(self, n: int, j: int, key: int, discovered: set):
        self.n, self.j, self.key = n, j, key
        self.discovered = discovered
        self._width = -((-BAND << 64) // math.comb(n, j))  # ceil(BAND * 2^64 / C(n, j))
        self._hi = 0
        self._rows = self._band()

    def _band(self):
        """An iterator over the next band's j-sets, in (h, J) order."""
        lo, self._hi = self._hi, min(self._hi + self._width, 1 << 64)
        self._width *= 4
        low, top = np.uint64(lo), np.uint64(self._hi - 1)  # hi can be 2^64
        rows = select_subsets(self.key, self.n, self.j, lambda h: (h >= low) & (h <= top))
        h = chain64_np(self.key, list(rows.T))
        # the rows are in lexicographic order, so a stable sort breaks hash ties as J does
        return map(tuple, rows[np.argsort(h, kind="stable")].tolist())

    def pop(self) -> Optional[tuple]:
        while True:
            for row in self._rows:
                if row not in self.discovered:
                    return row
            if self._hi == 1 << 64:
                return None
            self._rows = self._band()


@dataclass
class RunTrace:
    """Event log and summary of one search run. JSON-lines serializable:
    header line, one event per line, summary line last."""

    n: int
    k: int
    j: int
    seed: int
    mode: str
    trace_level: str
    stop_reason: str = "n/a"
    max_ell: int = 0
    final_ell: int = 0
    queries: int = 0
    new_starts: int = 0
    positives: int = 0
    activations: int = 0
    skips: int = 0
    discovered: int = 0
    explored: int = 0
    ms: float = 0.0
    events: list = field(default_factory=list)

    SCHEMA = 1
    # the header line's fields after "schema", and the summary line's keys and
    # the field each one holds, in file order
    HEADER = ("n", "k", "j", "seed", "mode", "trace_level")
    SUMMARY = {"stop_reason": "stop_reason", "max_ell": "max_ell", "final_ell": "final_ell",
               "queries": "queries", "new_starts": "new_starts", "edges_found": "positives",
               "activations": "activations", "skips": "skips", "discovered": "discovered",
               "explored": "explored", "ms": "ms"}

    def summary(self) -> dict:
        return {key: getattr(self, f) for key, f in self.SUMMARY.items()} | {"ms": round(self.ms, 3)}

    def header(self) -> dict:
        return {"schema": self.SCHEMA, **{f: getattr(self, f) for f in self.HEADER}}

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "header", **self.header()}) + "\n")
            for ev in self.events:
                fh.write(json.dumps(ev) + "\n")
            fh.write(json.dumps({"kind": "summary", **self.summary()}) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> "RunTrace":
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        if not lines:
            raise ValueError("empty trace file")
        head, tail = lines[0], lines[-1]
        if head.get("kind") != "header" or head.get("schema") != cls.SCHEMA:
            raise ValueError("unrecognized trace header")
        if tail.get("kind") != "summary":
            raise ValueError("trace missing summary line")
        for line, keys in ((head, cls.HEADER), (tail, cls.SUMMARY)):
            if missing := [key for key in keys if key not in line]:
                raise ValueError(f"trace {line['kind']} line lacks {missing}")
        return cls(**{f: head[f] for f in cls.HEADER},
                   **{f: tail[key] for key, f in cls.SUMMARY.items()}, events=lines[1:-1])


class PathFinder:
    """One depth-first run over a hypergraph backend.

    mode: "auto" uses the vectorized scan at every trace level; "checked"
    uses the generic (scalar) scan, asserts state invariants after every event
    and keeps a ledger of queried k-sets. audit=True (implies checked)
    re-derives the full allowed family before every query and asserts the
    scan agrees.
    """

    def __init__(
        self,
        H,
        j: int,
        seed: int = 0,
        stopping: Optional[StoppingConfig] = None,
        mode: str = "auto",
        trace_level: str = "events",
        audit: bool = False,
    ):
        self._start = time.perf_counter()  # RunTrace.ms covers construction too
        if trace_level not in TRACE_LEVELS:
            raise ValueError(f"trace_level must be one of {TRACE_LEVELS}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if H.n >= 2**31:
            raise ValueError(f"n = {H.n} does not fit the scan's int32 vertex columns")
        j, seed = operator.index(j), operator.index(seed)
        self.H = H
        self.n, self.k, self.j = H.n, H.k, j
        self.params: StructuralParams = structural_params(self.k, j)
        self.d = self.k - j
        self.seed = seed
        self.config = stopping if stopping is not None else StoppingConfig.unbounded()
        self.monitor = Monitor(self.n, self.k, j, self.config)
        self.audit = audit
        self.checked = audit or mode == "checked"
        self.mode = "checked" if self.checked else "auto"
        self.trace_level = trace_level
        self.events: list = []

        self.sigj_key = derive_key(seed, "sigma-j")
        self.sigk_key = derive_key(seed, "sigma-k")

        self.t = 0
        self.ell = 0
        self.max_ell = 0
        self.positives = 0
        self.activations = 0

        self.blocks: list[list[int]] = []
        self.edges: list[tuple] = []
        self.in_path = np.zeros(self.n, dtype=bool)  # the path's vertex set

        self.stack: list[ActiveRecord] = []
        self.discovered: set[tuple] = set()
        self.explored: set[tuple] = set()
        # T -> [E \ T] over explored j-sets E and their subsets T with |E \ T| <= k-j
        self.explored_by: dict[tuple, list[tuple]] = {}
        self.queried_ksets: set = set() if self.checked else None

        self.stream = _NeutralStream(self.n, j, self.sigj_key, self.discovered)
        self.stop_reason: Optional[str] = None
        self.ms = 0.0

    # -- event log ---------------------------------------------------------

    def _emit(self, ev: dict) -> None:
        if self.trace_level != "summary":
            self.events.append(ev)

    # -- path surgery ------------------------------------------------------

    def _reset_path(self, jset: tuple) -> None:
        a, d = self.params.a, self.d
        self.blocks = [list(jset[:a])] + [list(jset[i : i + d]) for i in range(a, self.j, d)]
        self.edges = []
        self.ell = 0
        self.in_path.fill(False)
        self.in_path[list(jset)] = True

    def _extend(self, rec: ActiveRecord, K: tuple) -> None:
        m = rec.edge_index
        assert self.ell == m, "extension out of position"
        donor = self.blocks[m]
        c0 = set(rec.jset).intersection(donor)
        donor[:] = [v for v in donor if v not in c0] + sorted(c0)
        X = [v for v in K if v not in rec.jset]
        self.blocks.append(X)
        for v in X:
            self.in_path[v] = True
        self.ell += 1
        self.max_ell = max(self.max_ell, self.ell)
        self.edges.append(K)
        self._emit({"event": "extend", "t": self.t, "ell": self.ell,
                    "jset": list(rec.jset), "edge": list(K)})
        if self.checked:
            self._check_path()

    def _remove_edge(self, m: int) -> None:
        assert self.ell == m, "retreat out of position"
        gone = self.blocks.pop()
        for v in gone:
            self.in_path[v] = False
        self.edges.pop()
        self.ell -= 1
        self._emit({"event": "edge_removed", "t": self.t, "edge_index": m, "ell": self.ell})
        if self.checked:
            self._check_path()

    def _check_path(self) -> None:
        p = self.params
        assert len(self.blocks) == 1 + p.r + self.ell
        assert len(self.blocks[0]) == p.a
        assert all(len(b) == self.d for b in self.blocks[1:])
        flat = [v for b in self.blocks for v in b]
        assert sorted(flat) == self.in_path.nonzero()[0].tolist()  # distinct, and in_path
        if self.ell >= 1:
            path = JTightPath(self.k, self.j, tuple(flat))
            assert list(path.edges()) == self.edges

    # -- candidate scans ----------------------------------------------------

    def _t_stop(self) -> float:
        cut = self.monitor.cutoff()
        return cut if math.isinf(cut) else math.ceil(cut)

    def _q4_dead(self, K: tuple) -> bool:
        return not self.explored.isdisjoint(combinations(K, self.j))

    def _filed(self, J: tuple, i: int) -> list[tuple]:
        """The i-sets S with T u S explored for some (j-i)-subset T of J: a candidate
        J u X of an active J is Q4-dead iff X holds one for some 1 <= i <= min(j, d)."""
        return [S for T in combinations(J, self.j - i) for S in self.explored_by.get(T, ())]

    def _scalar_order(self, rec: ActiveRecord) -> list[tuple]:
        """[(priority, K)] over every X disjoint from the path, in query order, minus
        the Q4-dead K, dropped through _filed before K is built: explored j-sets only
        accumulate, so those never revive (_scan_generic re-checks K for later kills)."""
        free = ~self.in_path
        free[[v for (v,) in self._filed(rec.jset, 1)]] = False
        dead = [(i, S) for i in range(2, min(self.j, self.d) + 1)
                if (S := set(self._filed(rec.jset, i)))]
        ent = []
        for X in combinations(free.nonzero()[0].tolist(), self.d):
            if all(S.isdisjoint(combinations(X, i)) for i, S in dead):
                K = tuple(sorted(rec.jset + X))
                ent.append((chain64(self.sigk_key, K), K))
        ent.sort()
        return ent

    def _scan_generic(self, rec: ActiveRecord):
        if rec.order is None:
            rec.order = iter(self._scalar_order(rec))
        t_stop = self._t_stop()
        full = self.trace_level == "full"
        for entry in rec.order:
            K = entry[1]
            if self._q4_dead(K):
                continue
            if self.audit:
                self._audit_candidate(rec, entry)
            rec.cursor = entry
            self.t += 1
            outcome = self.H.query_edge(K)
            assert K not in self.queried_ksets, "duplicate k-set query"
            self.queried_ksets.add(K)
            if full:
                self._emit({"event": "query", "t": self.t, "jset": list(rec.jset),
                            "edge": list(K), "outcome": bool(outcome)})
            if outcome:
                return ("success", K)
            if self.t >= t_stop:
                return ("stop", self.monitor.time_reason(self.t))
        return ("exhausted",)

    def _audit_candidate(self, rec: ActiveRecord, entry: tuple) -> None:
        fam = [e for e in self._scalar_order(rec) if e > (rec.cursor or ())][:1]
        assert fam == [entry], f"scan order diverged: {entry} vs {fam}"

    def _q4_mask(self, J: tuple, cands: Candidates) -> np.ndarray:
        """Q4 for completions of 2 or more vertices: False where X holds a part
        in _filed(J, i), i >= 2. The columns of X are built only if one exists."""
        alive = np.ones(cands.nrows, dtype=bool)
        for i in range(2, min(self.j, self.d) + 1):
            found = self._filed(J, i)
            if found:
                keys = pack_rows(np.array(found, dtype=np.int64).T, self.n)
                for sub in combinations(cands.xcols(), i):
                    alive &= np.isin(pack_rows(sub, self.n), keys, invert=True)
        return alive

    def _after(self, cands: Candidates, key: tuple, rows=True) -> np.ndarray:
        """The rows of the mask rows (default all) whose (priority, K) comes
        after key; a row's K is read only for those tied with key."""
        h, (hk, K) = cands.kept_hash(self.sigk_key), key
        after, tie = h > np.uint64(hk), h == np.uint64(hk)
        after &= rows
        tie &= rows
        for i in np.flatnonzero(tie):
            after[i] = cands.row(i) > K
        return after

    def _marks(self, J: tuple) -> tuple:
        """(T, len(explored_by[T])) for each T under which _explore_top files
        a Q4 kill of J's candidates: the (j-i)-subsets of J, 1 <= i <= min(j, d)."""
        return tuple((T, len(self.explored_by.get(T, ()))) for i in range(1, min(self.j, self.d) + 1)
                     for T in combinations(J, self.j - i))

    def _gaps(self, cands: Candidates, rows: np.ndarray, later: list) -> list:
        """How many of the marked rows lie in each gap before, between and
        after the sorted (priority, K) keys later."""
        ends = [int(np.count_nonzero(self._after(cands, key, rows))) for key in later]
        ends = [int(np.count_nonzero(rows)), *ends, 0]
        return [a - b for a, b in zip(ends, ends[1:])]

    def _summary(self, cands: Candidates, alive, succ) -> tuple:
        """The scan's answer from its live rows: the live successes as sorted
        (priority, K), and the number of the other live rows in each gap
        before, between and after them. It hashes priorities only if a row succeeded."""
        later = sorted((int(cands.kept_hash(self.sigk_key)[i]), cands.row(i))
                       for i in np.flatnonzero(succ))
        return later, self._gaps(cands, alive & ~succ, later)

    def _replay(self, rec: ActiveRecord):
        """The record's summary after the Q4 kills filed since its last scan,
        or None when a kill's part outside J has fewer than d-1 vertices.

        The path has the same vertex set as at that scan (see the module
        docstring). So a new entry S under T kills nothing when S meets the
        path; else it kills the rows through J2 = J u S: J2 itself when
        |S| = d, and J2 u {w} for each free w outside S when |S| = d-1. The
        kills are taken in turn, and "explored before" means explored and not
        a kill still to take, so a row two kills share drops once. A row
        changes nothing if it held a j-set explored before (it was dead then)
        or lies at or behind the cursor (it was queried); else it was a
        stored success, which goes and merges its two gaps, or a live row of
        one gap."""
        later, gaps, marks = rec.resume
        new = [(T, S) for T, m in marks for S in self.explored_by.get(T, ())[m:]
               if not any(self.in_path[v] for v in S)]
        if any(len(S) < self.d - 1 for _, S in new):
            return None
        pending = {tuple(sorted(T + S)) for T, S in new}
        hits = []  # the stored successes killed, as indices into later
        for T, S in new:
            J2 = tuple(sorted(rec.jset + S))
            if not any(E in self.explored and E not in pending for E in combinations(J2, self.j)):
                if len(S) == self.d:
                    key = (chain64(self.sigk_key, J2), J2)
                    if key > rec.cursor:
                        i = bisect_left(later, key)
                        if later[i : i + 1] == [key]:
                            hits.append(i)
                        else:
                            gaps[i] -= 1
                else:
                    hits += self._drop_rows(rec, J2, S, pending, later, gaps)
            pending.discard(tuple(sorted(T + S)))
        for i in sorted(hits, reverse=True):
            del later[i]
            gaps[i : i + 2] = [gaps[i] + gaps[i + 1]]
        return later, gaps

    def _drop_rows(self, rec: ActiveRecord, J2: tuple, S: tuple, pending: set, later, gaps) -> list:
        """Replay one kill of the rows J2 u {w} (see _replay): take its live
        rows off their gaps, and return the indices of the stored successes
        among them."""
        # w is dead before where T' u {w} was explored before, T' a (j-1)-subset of J2
        dead = np.bincount(np.array([v for (v,) in self._filed(J2, 1)], dtype=np.intp), minlength=self.n)
        for E in pending:
            w = set(E).difference(J2)
            if len(w) == 1:
                dead[w.pop()] -= 1
        free = ~self.in_path & (dead == 0)
        free[list(S)] = False
        cands = Candidates(J2, np.flatnonzero(free).astype(np.int32), 1)
        hits = []  # stored successes that are rows here; each lies in the gap before it
        for i, (_, K) in enumerate(later):
            w = set(K).difference(J2)
            if len(w) == 1 and free[w.pop()]:
                hits.append(i)
        for i, c in enumerate(self._gaps(cands, self._after(cands, rec.cursor), later)):
            gaps[i] -= c - (i in hits)
        return hits

    def _scan_kernel(self, rec: ActiveRecord):
        # Every scan answers from one summary of its live rows past the cursor
        # (see _summary). A resumed scan gets it from _replay; it builds its
        # candidates only after a kill of fewer than d-1 vertices outside J,
        # or where the clock cuts it, to leave the cursor as a rescan does.
        t0, t_stop = self.t, self._t_stop()
        full = self.trace_level == "full"
        kept = self._replay(rec) if rec.resume else None
        rec.resume = None
        if kept is None or t0 + kept[1][0] >= t_stop:
            # Work order: the Q4 mask, then the coins. The priorities are one
            # cached pass, run where first needed: Q3 on a rescan past a
            # cursor, a live success, a full trace's queries or a cut. Hashing
            # has no side effects, so the order changes no outcome.
            # Q4 for one-vertex completions: drop v where T u {v} is explored
            # for a (j-1)-subset T of J. No dropped candidate is ever queried.
            free = ~self.in_path
            free[[v for (v,) in self._filed(rec.jset, 1)]] = False
            cands = Candidates(rec.jset, np.flatnonzero(free).astype(np.int32), self.d)
            alive = self._q4_mask(rec.jset, cands)
            if rec.cursor is not None:
                alive = self._after(cands, rec.cursor, alive)
            if not alive.any():
                return ("exhausted",)
            succ = alive & self.H.bulk_query(cands)
            kept = self._summary(cands, alive, succ)
        later, gaps = kept
        # the clock stops at a failed query at t_stop; a success there stands
        cut = t0 + gaps[0] >= t_stop
        self.t = int(t_stop) if cut else t0 + gaps[0] + bool(later)
        if full:  # a full trace never stores a summary, so this scan built its rows
            self._emit_queries(rec, cands, alive, succ, t0)
        if cut:
            # Q3 as the generic scan leaves it: at the last row the clock counted
            h = cands.kept_hash(self.sigk_key)
            last = self._query_order(cands, h, alive)[self.t - t0 - 1]
            rec.cursor = (int(h[last]), cands.row(last))
            return ("stop", self.monitor.time_reason(self.t))
        if not later:
            return ("exhausted",)
        rec.cursor = later[0]
        if not full:
            rec.resume = (later[1:], gaps[1:], self._marks(rec.jset))
        return ("success", rec.cursor[1])

    @staticmethod
    def _query_order(cands: Candidates, h: np.ndarray, alive: np.ndarray) -> np.ndarray:
        """The live rows in the generic scan's (priority, K) query order."""
        live = np.flatnonzero(alive)
        return live[np.lexsort(tuple(c[live] for c in reversed(cands)) + (h[live],))]

    def _emit_queries(self, rec: ActiveRecord, cands: Candidates, alive, succ, t0: int) -> None:
        """One query event per clock tick since t0: the live rows in query
        order, cut where the clock stopped."""
        rows = self._query_order(cands, cands.kept_hash(self.sigk_key), alive)[: self.t - t0]
        edges = np.column_stack([c[rows] for c in cands]).tolist()
        for t, (K, outcome) in enumerate(zip(edges, succ[rows].tolist()), t0 + 1):
            self._emit({"event": "query", "t": t, "jset": list(rec.jset),
                        "edge": K, "outcome": outcome})

    def _scan(self, rec: ActiveRecord):
        res = self._scan_generic(rec) if self.checked else self._scan_kernel(rec)
        if res[0] == "exhausted":  # past every (priority, K): nothing is left to query
            rec.cursor = (MASK64, (self.n,))
        return res

    # -- search loop ---------------------------------------------------------

    def _new_start(self) -> bool:
        jset = self.stream.pop()
        if jset is None:
            return False
        self._reset_path(jset)
        self.stack = [ActiveRecord(jset, 0)]
        self._discover(jset, new_start=True)
        self._emit({"event": "new_start", "t": self.t, "jset": list(jset),
                    "partition": [list(b) for b in self.blocks]})
        return True

    def _discover(self, jset: tuple, new_start: bool) -> None:
        if jset in self.discovered:
            raise AssertionError(f"j-set discovered twice: {jset}")
        self.discovered.add(jset)
        self.monitor.on_discover(jset, new_start=new_start)

    def _explore_top(self) -> None:
        rec = self.stack.pop()
        self.explored.add(rec.jset)
        for i in range(1, min(self.j, self.d) + 1):
            for S in combinations(rec.jset, i):
                T = tuple(v for v in rec.jset if v not in S)
                self.explored_by.setdefault(T, []).append(S)
        self._emit({"event": "explored", "t": self.t, "jset": list(rec.jset)})
        m = rec.edge_index  # a batch lies directly above a record of edge index m-1
        if m and self.stack[-1].edge_index < m:
            self._remove_edge(m)

    def _activate(self) -> None:
        """Push the batch of the edge just appended in priority order; every
        member is new (see the module docstring)."""
        members = activate_batch(self.params, self.blocks)
        members.sort(key=lambda js: (chain64(self.sigj_key, js), js))
        for js in members:
            self._discover(js, new_start=False)
        self.activations += len(members)
        self._emit({"event": "batch", "t": self.t, "edge_index": self.ell,
                    "members": [list(js) for js in members], "skipped": 0})
        self.stack.extend(ActiveRecord(js, self.ell) for js in members)
        self.positives += 1

    def _check_invariants(self) -> None:
        p = self.params
        assert len(self.stack) <= 1 + p.batch_size * self.ell
        assert self.activations == p.batch_size * self.positives
        assert self.monitor.new_starts + self.activations == len(self.discovered)
        assert len(self.stack) + len(self.explored) == len(self.discovered)
        assert all(self.in_path[v] for r in self.stack for v in r.jset)

    def _step(self) -> Optional[str]:
        rec = self.stack[-1]
        if self.checked:  # J is its a vertices in block m plus blocks m+1..m+r
            m = rec.edge_index
            assert self.ell == m
            J = set(rec.jset)
            assert len(J.intersection(self.blocks[m])) == self.params.a
            assert J.difference(self.blocks[m]) == set().union(*self.blocks[m + 1 :])
        res = self._scan(rec)
        if res[0] == "stop":
            return res[1]
        if res[0] == "exhausted":
            self._explore_top()
            return None
        self._extend(rec, res[1])
        self._activate()
        if self.checked:
            self._check_invariants()
        return self.monitor.check_stop(self.ell, self.t)

    def run(self) -> RunTrace:
        if self.stop_reason is not None:
            raise RuntimeError("run already completed")
        reason = None
        while reason is None:
            if not self.stack:
                if not self._new_start():
                    reason = EXHAUSTED
                    break
                reason = self.monitor.check_stop(self.ell, self.t)
                continue
            reason = self._step()
        self.stop_reason = reason
        self.ms = (time.perf_counter() - self._start) * 1000.0
        self._emit({"event": "stop", "t": self.t, "reason": reason,
                    "ell": self.ell, "max_ell": self.max_ell})
        return self._build_trace()

    def _build_trace(self) -> RunTrace:
        return RunTrace(
            n=self.n, k=self.k, j=self.j, seed=self.seed, mode=self.mode,
            trace_level=self.trace_level, stop_reason=self.stop_reason,
            max_ell=self.max_ell, final_ell=self.ell, queries=self.t,
            new_starts=self.monitor.new_starts, positives=self.positives,
            activations=self.activations, discovered=len(self.discovered),
            explored=len(self.explored), ms=self.ms, events=self.events,
        )


def run(
    H,
    k: int,
    j: int,
    seed: int = 0,
    stopping: Optional[StoppingConfig] = None,
    mode: str = "auto",
    trace_level: str = "events",
    audit: bool = False,
) -> RunTrace:
    """Run the search to termination and return its trace."""
    if H.k != k:
        raise ValueError(f"backend is {H.k}-uniform, expected {k}")
    if not 1 <= j <= k - 1:
        raise ValueError(f"j must be in [1, {k - 1}]")
    finder = PathFinder(H, j, seed=seed, stopping=stopping, mode=mode,
                        trace_level=trace_level, audit=audit)
    return finder.run()

