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
every kNN query from scratch. Each regressor keeps two caches of
_Neighbourhood, the k nearest training points of a point, nearest first, with
their distances, training indices and labels, and the mean of those labels:

- Candidates: the first scan of an unlabeled row costs one distance scan over
  the training set. Its neighbourhood gives both its self-label (the mean)
  and Omega, the training points whose local error the confidence measures.
  Every later pool that draws the row reads the cached neighbourhood.
- Training points: for every training point i that has appeared in some
  Omega, the neighbourhood of i, whose mean gives the "before" residual y_i
  minus that mean. The "after" neighbourhood of i is its cached list with
  the candidate inserted at the candidate's distance to i, read from the
  candidate's neighbourhood (|a - b| == |b - a|), then cut back to k.
- One insertion rule keeps both caches exact. A point transferred into a
  regressor's training set has the highest training index, so it enters a
  neighbourhood after every equal distance (bisect_right), and the list is
  cut back to k. Its distance to every cached point comes from one distance
  scan per cache.
- The final fill of a scanned row is its cached neighbourhood's mean; a row
  never scanned takes one distance scan over the whole training set. Either
  way it is the mean of the same labels in the same order as a fresh query,
  so the bits match.

Distance ties go to the earlier training index, as a stable sort orders
them. The training set and the unlabeled rows are held feature-major, (d, n)
and (d, m), so a distance scan adds the d features as d vector adds (see
_minkowski). The caches hold O((m + n) k) values per regressor: no candidate x
training distance matrix is built.
"""

from __future__ import annotations

import bisect
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


class _Neighbourhood:
    """The k nearest training points of one point, nearest first."""

    __slots__ = ("dists", "indices", "labels", "mean")

    def __init__(self, dists, indices, labels):
        self.dists = dists      # list of distances, ascending
        self.indices = indices  # their training indices, in the same order
        self.labels = labels    # their labels, in the same order
        self.mean = float(np.mean(labels))

    def insert_at(self, d, k):
        """Position at which a point at distance d enters, or None if it does not.

        The point must have a higher training index than every neighbour, so
        it goes after every equal distance.
        """
        pos = bisect.bisect_right(self.dists, d)
        return pos if pos < k else None

    def insert(self, d, i, y, k):
        """Let training point i, labelled y at distance d, in and cut back to k."""
        pos = self.insert_at(d, k)
        if pos is None:
            return
        self.dists.insert(pos, d)
        self.indices.insert(pos, i)
        self.labels.insert(pos, y)
        del self.dists[k:], self.indices[k:], self.labels[k:]
        self.mean = float(np.mean(self.labels))


class _Regressor:
    """One COREG kNN regressor: its feature-major training set xt (d, n), its
    labels ys (n,) and two caches of _Neighbourhood, kept exact as the
    training set grows.

    _train maps a training index to its neighbourhood, computed the first time
    the point appears in some candidate's neighbourhood. _candidates maps a
    column of the feature-major unlabeled rows ut (d, m) to its neighbourhood,
    computed the first time the row is scanned.
    """

    def __init__(self, xs, ys, ut, k, p):
        self.xt = np.ascontiguousarray(xs.T)
        self.ys = ys
        self.ut = ut
        self.k = k
        self.p = p
        self._train = {}
        self._candidates = {}

    def _scan(self, x):
        """The k nearest training points of x, by one distance scan."""
        dist = _minkowski(self.xt, x, self.p)
        near = _nearest(dist, self.k)
        return _Neighbourhood(dist[near].tolist(), near.tolist(), self.ys[near].tolist())

    def neighbourhood(self, i):
        nb = self._train.get(i)
        if nb is None:
            nb = self._train[i] = self._scan(self.xt[:, i])
        return nb

    def candidate(self, u):
        nb = self._candidates.get(u)
        if nb is None:
            nb = self._candidates[u] = self._scan(self.ut[:, u])
        return nb

    def fill(self, u):
        """Mean label of unlabeled row u's k nearest training points: the mean
        of its exact cached neighbourhood, or of one scan if it was never scanned."""
        nb = self._candidates.get(u)
        if nb is None:
            return _knn_mean(self.ys, self.xt, self.ut[:, u], self.k, self.p)
        return nb.mean

    def add(self, x, y):
        """Append (x, y) to the training set and update both caches."""
        i = len(self.ys)
        for cache, points in ((self._train, self.xt), (self._candidates, self.ut)):
            # |a - b| == |b - a|: the distance from each cached point to x is
            # the distance a fresh scan of that point would find to x
            dist = _minkowski(points, x, self.p).tolist()
            for j, nb in cache.items():
                nb.insert(dist[j], i, y, self.k)
        self.xt = np.hstack([self.xt, x[:, None]])
        self.ys = np.append(self.ys, y)


def _confidence(reg, cand, cand_y):
    """Delta in local squared error from tentatively adding a candidate.

    cand is the candidate's neighbourhood: Omega, its k nearest training
    points of reg, and its distance to each. Positive means Omega is
    predicted better after the addition.
    """
    k = reg.k
    delta = 0.0
    for i, d in zip(cand.indices, cand.dists):
        nb = reg.neighbourhood(i)
        before = reg.ys[i] - nb.mean
        pos = nb.insert_at(d, k)
        if pos is None:
            after = before
        else:
            labels = nb.labels[:pos] + [cand_y] + nb.labels[pos:k - 1]
            after = reg.ys[i] - float(np.mean(labels))
        delta += before * before - after * after
    return float(delta)


# ---------------------------------------------------------------------------
# the co-training loop


def _best_candidate(reg, pool, taken):
    """Scan the pool and return the best positive-delta pick, or None.

    Selection maximizes delta; exact ties go to the smaller unlabeled index.
    """
    best = None
    for u in pool:
        if u in taken:
            continue
        cand = reg.candidate(u)
        y_hat = cand.mean
        delta = _confidence(reg, cand, y_hat)
        if delta <= 0.0:
            continue
        if best is None or delta > best.delta or (delta == best.delta and u < best.index):
            best = PickInfo(index=u, label=y_hat, delta=delta)
    return best


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
