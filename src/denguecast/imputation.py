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
every kNN query from scratch:

- A scanned candidate costs one distance scan over the regressor's training
  set. Its k nearest training points give both its self-label and the
  neighbourhood Omega whose local error the confidence measures.
- Each regressor caches, for every training point i that has appeared in
  some Omega, the distances and labels of i's k nearest training points,
  nearest first, and the "before" residual y_i minus the mean of those
  labels.
- The "after" neighbourhood of i is its cached list with the candidate
  inserted at the candidate's distance to i, which the scan already
  computed (|a - b| == |b - a|), then cut back to k. The mean is taken over
  the same labels in the same order as a fresh query would use, so the bits
  match.
- A point transferred into a regressor's training set enters every cached
  neighbourhood of that regressor by the same rule, after one distance scan,
  and the changed "before" residuals are recomputed.

Distance ties go to the earlier training index, as a stable sort orders
them. A new point always has the highest index, so it is inserted after
every equal distance.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import dataprep
from .errors import PreconditionError, ValidationError
from .nn_core import make_rng


@dataclass(frozen=True)
class CoregCfg:
    """The impute flags: both regressors use k neighbours, the first Minkowski
    order p1 and the second p2."""
    k: int = 3
    p1: float = 2.0
    p2: float = 5.0
    max_iters: int = 100
    pool_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValidationError(
                f"co-training needs k >= 2, got k={self.k}: with k=1 each "
                "training point is its own nearest neighbour, so every "
                "confidence delta is 0 and nothing is ever picked"
            )
        for name in ("p1", "p2"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"Minkowski order {name} must be >= 1, got {getattr(self, name)}")
        if self.p1 == self.p2:
            raise ValidationError(
                "the two regressors must use different Minkowski orders"
            )
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {self.pool_size}")


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


def _minkowski(xs, x, p):
    d = np.abs(xs - x)
    if p == 2.0:
        return np.sqrt(np.sum(d * d, axis=1))
    return np.sum(d**p, axis=1) ** (1.0 / p)


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


def _knn_mean(xs, ys, x, k, p):
    return float(np.mean(ys[_nearest(_minkowski(xs, x, p), k)]))


class _Neighbourhood:
    """The k nearest training points of one training point, nearest first."""

    __slots__ = ("dists", "labels", "before")

    def __init__(self, dists, labels, before):
        self.dists = dists    # list of distances, ascending
        self.labels = labels  # their labels, in the same order
        self.before = before  # the point's label minus the mean of labels

    def insert_at(self, d, k):
        """Position at which a point at distance d enters, or None if it does not.

        The point must have a higher training index than every neighbour, so
        it goes after every equal distance.
        """
        pos = bisect.bisect_right(self.dists, d)
        return pos if pos < k else None


class _Regressor:
    """One COREG kNN regressor: its training set and a neighbourhood cache.

    The cache maps a training index to its _Neighbourhood. An entry is
    computed the first time the point appears in some candidate's
    neighbourhood and is kept exact as the training set grows.
    """

    def __init__(self, xs, ys, k, p):
        self.xs = xs
        self.ys = ys
        self.k = k
        self.p = p
        self._cache = {}

    def query(self, x):
        """Distances from x to every training point, and the k nearest indices."""
        dist = _minkowski(self.xs, x, self.p)
        return dist, _nearest(dist, self.k)

    def neighbourhood(self, i):
        nb = self._cache.get(i)
        if nb is None:
            dist, near = self.query(self.xs[i])
            labels = self.ys[near].tolist()
            nb = _Neighbourhood(dist[near].tolist(), labels,
                                self.ys[i] - float(np.mean(labels)))
            self._cache[i] = nb
        return nb

    def add(self, x, y):
        """Append (x, y) to the training set and update the cached neighbourhoods."""
        dist = _minkowski(self.xs, x, self.p)
        for i, nb in self._cache.items():
            pos = nb.insert_at(dist[i], self.k)
            if pos is None:
                continue
            nb.dists.insert(pos, dist[i])
            nb.labels.insert(pos, y)
            del nb.dists[self.k:], nb.labels[self.k:]
            nb.before = self.ys[i] - float(np.mean(nb.labels))
        self.xs = np.vstack([self.xs, x[None, :]])
        self.ys = np.append(self.ys, y)


def _confidence(reg, dist, omega, cand_y):
    """Delta in local squared error from tentatively adding a candidate.

    dist holds the candidate's distance to every training point of reg and
    omega its k nearest training indices. Positive means the neighborhood
    of the candidate is predicted better after the addition.
    """
    k = reg.k
    delta = 0.0
    for i in omega.tolist():
        nb = reg.neighbourhood(i)
        before = nb.before
        pos = nb.insert_at(dist[i], k)
        if pos is None:
            after = before
        else:
            labels = nb.labels[:pos] + [cand_y] + nb.labels[pos:k - 1]
            after = reg.ys[i] - float(np.mean(labels))
        delta += before * before - after * after
    return float(delta)


# ---------------------------------------------------------------------------
# the co-training loop


def _best_candidate(reg, unlabeled, pool, taken):
    """Scan the pool and return the best positive-delta pick, or None.

    Selection maximizes delta; exact ties go to the smaller unlabeled index.
    """
    best = None
    for u in pool:
        if u in taken:
            continue
        dist, omega = reg.query(unlabeled[u])
        y_hat = float(np.mean(reg.ys[omega]))
        delta = _confidence(reg, dist, omega, y_hat)
        if delta <= 0.0:
            continue
        if best is None or delta > best.delta or (delta == best.delta and u < best.index):
            best = PickInfo(index=u, label=y_hat, delta=delta)
    return best


def coreg_impute(xs, ys, unlabeled, cfg):
    """Run the co-training loop and impute every unlabeled row.

    xs (n, d) holds the labeled rows and ys (n,) their labels; unlabeled
    (m, d) the rows to fill. Returns (a list of m imputed values, in row
    order, iteration log). Transferred pseudo-labeled points leave the pool
    permanently; the final imputed value is always the mean of the two
    finished regressors.
    """
    if len(ys) == 0:
        raise PreconditionError("no observed larval indices; cannot co-train")
    log = []
    sides = [_Regressor(xs, ys, cfg.k, cfg.p1), _Regressor(xs, ys, cfg.k, cfg.p2)]
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
            pick = _best_candidate(side, unlabeled, pool, taken)
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
    for x in unlabeled:
        y1, y2 = (_knn_mean(s.xs, s.ys, x, s.k, s.p) for s in sides)
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
