"""Semi-supervised imputation of missing larval indices.

Co-training regression (COREG, Zhou & Li, IJCAI 2005): two kNN regressors
with different Minkowski distance orders teach each other. Each iteration
both regressors scan a seeded random pool of unlabeled points, self-label
them, and the point whose tentative addition most reduces local squared error
(largest positive delta) is transferred, with its predicted label, into the
peer's training set. On termination every originally-unlabeled point gets the
mean of the two regressors' predictions.

Everything works on arrays of feature rows (imputation_features, one per
record). coreg_impute takes the labeled rows xs (n, d), their larval indices
ys (n,) and the unlabeled rows (m, d); it returns one value per unlabeled
row, in row order, and the iteration log, which names a row by its index.

The scan is incremental, and its results are bit-identical to re-running
every kNN query from scratch. Each regressor keeps two _Tables, one row per
point: the point's L = min(k, n) nearest training points, nearest first, as
(rows, L) arrays of distances, training indices and labels, with a mean
vector of each row's labels and a known mask of the rows scanned so far.
cand has a row per unlabeled row, scanned (one distance scan over the
training set) the first time a pool draws it: its mean is the row's
self-label, its points are Omega, whose local error the confidence measures.
train has a row per training point, scanned the first time the point is in
some Omega; its mean gives the "before" residual.

- A pool is scored at once: _best_candidate scans the pool's unknown rows
  and their Omega's, then one _confidence call builds every candidate's
  "after" rows: each Omega point's row with the candidate put in at the
  candidate's distance to it (|a - b| == |b - a|), cut back to k.
- A point transferred into a regressor's training set has the highest
  training index, so it enters a row after every equal distance (at the
  count of the row's distances <= its own). One distance scan per table and
  one vectorised insert update every row. While n < k a scan returns all n
  points and every insert widens the rows by one, so no row is ragged.
- Every mean is np.mean over the last axis of C-contiguous rows, which adds
  a row as np.mean adds those labels alone, and the confidence adds the
  Omega columns in order from 0.0, as a loop over Omega would. The final
  fill of a row never scanned is one scan over the training set (_knn_mean).

Distance ties go to the earlier training index, as a stable sort orders
them. The training set and the unlabeled rows are held feature-major, (d, n)
and (d, m), so a distance scan adds the d features as d vector adds (see
_minkowski). No candidate x training distance matrix is built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dataprep
from .errors import PreconditionError
from .nn_core import make_rng


@dataclass
class PickInfo:
    index: int  # row of the point in unlabeled
    label: float
    delta: float


@dataclass
class IterationEntry:
    iteration: int
    picks: tuple[PickInfo | None, PickInfo | None]
    train_sizes: tuple[int, int]

    def line(self):
        parts = [f"iter={self.iteration}"]
        for j, pick in enumerate(self.picks, start=1):
            if pick is None:
                parts.append(f"r{j}=none")
            else:
                parts.append(
                    f"r{j}=(idx={pick.index}, y={pick.label!r}, delta={pick.delta!r})"
                )
        parts.append(f"sizes={self.train_sizes[0]}/{self.train_sizes[1]}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# kNN core


def _minkowski(xt, x, p):
    """Distances from x (d,) to every column of the feature-major xt (d, n).

    The sum over axis 0 adds the d features left to right, one vector add per
    feature; np.sum(axis=1) on the same points as (n, d) rows adds them in the
    same order while d < 8 (numpy's pairwise sum starts at 8 values), so the
    distances are bit-identical to the row-wise ones.
    """
    d = np.abs(xt - x[:, None])
    return np.sum(d**p, axis=0) ** (1.0 / p)


def _nearest(dist, k):
    """Indices of the k smallest distances, nearest first.

    Equal to np.argsort(dist, kind="stable")[:k], so ties go to the earlier
    index, but only the entries at or below the k-th distance are sorted.
    """
    if k >= len(dist):
        return np.argsort(dist, kind="stable")
    kth = np.partition(dist, k - 1)[k - 1]
    near = np.flatnonzero(dist <= kth)
    return near[np.argsort(dist[near], kind="stable")[:k]]


def _knn_mean(ys, xt, x, k, p):
    """Mean label of the k points nearest x among the columns of xt (d, n),
    labelled ys (n,)."""
    return float(np.mean(ys[_nearest(_minkowski(xt, x, p), k)]))


def _insert(rows, pos, value):
    """rows (..., L) with value put in at column pos (...) of each, so that
    the last column drops out; value broadcasts against rows. A row whose pos
    is L comes back as it was."""
    cols = np.arange(rows.shape[-1])
    at = pos[..., None]
    kept = np.take_along_axis(rows, cols - (cols > at), axis=-1)
    return np.where(cols == at, value, kept)


class _Table:
    """The nearest training points of a set of points, one row per point,
    nearest first: their distances dist, training indices idx and labels lab,
    each (rows, L), the mean of each row's labels, and whether the row is
    known (scanned). An unknown row holds nothing that is read."""

    def __init__(self, rows, width):
        self.dist = np.zeros((rows, width))
        self.idx = np.zeros((rows, width), dtype=np.intp)
        self.lab = np.zeros((rows, width))
        self.mean = np.zeros(rows)
        self.known = np.zeros(rows, dtype=bool)

    def insert(self, dist, i, y, k):
        """Let training point i, labelled y and dist[r] from row r's point, into
        every known row. Its index is the highest, so it enters after every
        equal distance, and a row it enters is cut back to k."""
        pos = np.sum(self.dist <= dist[:, None], axis=-1)
        if self.dist.shape[1] < k:  # while n < k it enters every row, one wider
            self.dist, self.idx, self.lab = (np.pad(a, ((0, 0), (0, 1)))
                                             for a in (self.dist, self.idx, self.lab))
        rows = np.flatnonzero(self.known & (pos < self.dist.shape[1]))
        pos = pos[rows]
        self.dist[rows] = _insert(self.dist[rows], pos, dist[rows, None])
        self.idx[rows] = _insert(self.idx[rows], pos, i)
        self.lab[rows] = _insert(self.lab[rows], pos, y)
        self.mean[rows] = np.mean(self.lab[rows], axis=-1)

    def grow(self):  # an unknown row, for the point just added
        for name in ("dist", "idx", "lab", "mean", "known"):
            a = getattr(self, name)
            setattr(self, name, np.concatenate([a, np.zeros((1, *a.shape[1:]), a.dtype)]))


class _Regressor:
    """One COREG kNN regressor: its feature-major training set xt (d, n), its
    labels ys (n,) and its _Tables, kept exact as the training set grows:
    train, a row per training point, and cand, a row per column of the
    feature-major unlabeled rows ut (d, m)."""

    def __init__(self, xs, ys, ut, k, p):
        self.xt = np.ascontiguousarray(xs.T)
        self.ys = ys
        self.ut = ut
        self.k = k
        self.p = p
        self.train = _Table(len(ys), min(k, len(ys)))
        self.cand = _Table(ut.shape[1], min(k, len(ys)))

    def _scan(self, table, points, rows):
        """Scan each unknown row r of table, whose point is points[:, r]."""
        rows = rows[~table.known[rows]]
        for r in rows.tolist():
            dist = _minkowski(self.xt, points[:, r], self.p)
            near = table.idx[r] = _nearest(dist, self.k)
            table.dist[r] = dist[near]
        table.lab[rows] = self.ys[table.idx[rows]]
        table.mean[rows] = np.mean(table.lab[rows], axis=-1)
        table.known[rows] = True

    def scan(self, rows):
        """Make the unlabeled rows known in cand, and their Omega in train."""
        self._scan(self.cand, self.ut, rows)
        omega = np.bincount(self.cand.idx[rows].ravel())  # np.unique loads numpy.ma
        self._scan(self.train, self.xt, np.flatnonzero(omega))

    def fill(self, u):
        """Mean label of unlabeled row u's k nearest training points: its
        known row's mean, or that of one scan if it was never scanned."""
        if self.cand.known[u]:
            return float(self.cand.mean[u])
        return _knn_mean(self.ys, self.xt, self.ut[:, u], self.k, self.p)

    def add(self, x, y):
        """Append (x, y) to the training set and update both tables."""
        # |a - b| == |b - a|: the distance from each row's point to x is the
        # distance a fresh scan of that point would find to x
        for table, points in ((self.train, self.xt), (self.cand, self.ut)):
            table.insert(_minkowski(points, x, self.p), len(self.ys), y, self.k)
        self.train.grow()
        self.xt = np.hstack([self.xt, x[:, None]])
        self.ys = np.append(self.ys, y)


def _confidence(reg, rows, cand_y):
    """Delta in local squared error from tentatively adding each candidate.

    rows are known rows of reg.cand, the candidates, labelled cand_y (P,). A
    candidate's row is Omega, its nearest training points of reg, and its
    distance to each. Returns (P,) deltas; positive means Omega is predicted
    better after the addition.
    """
    omega, train = reg.cand.idx[rows], reg.train
    pos = np.sum(train.dist[omega] <= reg.cand.dist[rows][..., None], axis=-1)
    before = reg.ys[omega] - train.mean[omega]
    labels = train.lab[omega]
    if labels.shape[-1] < reg.k:  # while n < k the candidate widens every row
        labels = np.pad(labels, ((0, 0), (0, 0), (0, 1)))
    after = np.mean(_insert(labels, pos, cand_y[:, None, None]), axis=-1)
    after = np.where(pos < reg.k, reg.ys[omega] - after, before)
    delta = np.zeros(len(rows))
    for term in (before * before - after * after).T:  # Omega in order, from 0.0
        delta += term
    return delta


# ---------------------------------------------------------------------------
# the co-training loop


def _best_candidate(reg, pool, taken):
    """Score the pool's untaken rows at once and return the best
    positive-delta pick, or None. Selection maximizes delta; exact ties go to
    the smaller unlabeled index."""
    rows = np.array([u for u in pool if u not in taken], dtype=np.intp)
    if not len(rows):
        return None
    reg.scan(rows)
    y_hat = reg.cand.mean[rows]
    delta = _confidence(reg, rows, y_hat)
    best = int(np.argmax(delta))  # the first of equal maxima; rows ascend
    if delta[best] <= 0.0:
        return None
    return PickInfo(index=int(rows[best]), label=float(y_hat[best]),
                    delta=float(delta[best]))


def coreg_impute(xs, ys, unlabeled, cfg):
    """Run the co-training loop and impute every unlabeled row.

    xs (n, d) holds the labeled rows and ys (n,) their labels; unlabeled
    (m, d) the rows to fill; cfg is a specs.CoregCfg. Returns (a list of m
    imputed values, in row order, iteration log). Transferred pseudo-labeled
    points leave the pool permanently; the final imputed value is always the
    mean of the two finished regressors.
    """
    if len(ys) == 0:
        raise PreconditionError("no observed larval indices; cannot co-train")
    log = []
    ut = np.ascontiguousarray(unlabeled.T)
    sides = [_Regressor(xs, ys, ut, cfg.k, p) for p in (cfg.p1, cfg.p2)]
    remaining = list(range(len(unlabeled)))
    rng = make_rng(cfg.seed)

    for iteration in range(1, cfg.max_iters + 1):
        if not remaining:
            break
        pool_size = min(cfg.pool_size, len(remaining))
        pool_positions = rng.choice(len(remaining), size=pool_size, replace=False)
        pool = sorted(remaining[i] for i in pool_positions)

        picks = []
        taken = set()
        for side in sides:
            pick = _best_candidate(side, pool, taken)
            picks.append(pick)
            if pick is not None:
                taken.add(pick.index)
        # each chosen point joins the PEER regressor's training set
        for j, pick in enumerate(picks):
            if pick is None:
                continue
            sides[1 - j].add(unlabeled[pick.index], pick.label)
            remaining.remove(pick.index)
        log.append(
            IterationEntry(
                iteration=iteration,
                picks=(picks[0], picks[1]),
                train_sizes=(len(sides[0].ys), len(sides[1].ys)),
            )
        )
        if picks[0] is None and picks[1] is None:
            break

    imputed = []
    for u in range(len(unlabeled)):
        y1, y2 = (side.fill(u) for side in sides)
        imputed.append(0.5 * (y1 + y2))
    return imputed, log


# ---------------------------------------------------------------------------
# record-level wiring


def imputation_features(records):
    """Feature matrix for imputation: scaled climate + month-of-year encoding.

    The larval index is seasonal, so each row gets min-max scaled climate
    features plus sine/cosine of the calendar month.
    """
    scaler = dataprep.fit_scaler(records, dataprep.CLIMATE_FEATURES)
    climate = scaler.transform([[getattr(r, c) for c in scaler.ranges] for r in records])
    angles = [2.0 * math.pi * (r.month[1] - 1) / 12.0 for r in records]
    return np.hstack([climate, [[math.sin(a), math.cos(a)] for a in angles]])


def impute_larval(records, cfg):
    """Fill missing larval_index values in assembled records via co-training.

    Returns (records with larval filled, provenance list of "observed" or
    "imputed" per record, iteration log).
    """
    feats = imputation_features(records)
    observed = np.array([r.larval_index is not None for r in records])
    ys = np.array([r.larval_index for r in records if r.larval_index is not None],
                  dtype=np.float64)
    imputed, log = coreg_impute(feats[observed], ys, feats[~observed], cfg)

    out = []
    provenance = []
    fill = iter(imputed)
    for r in records:
        if r.larval_index is None:
            # a mean of labels in [1, 3]; replace checks the range again
            out.append(dataclasses.replace(r, larval_index=next(fill)))
            provenance.append("imputed")
        else:
            out.append(r)
            provenance.append("observed")
    return out, provenance, log
