import math

import numpy as np
import pytest

from denguecast.dataprep import DistrictMonthRecord
from denguecast.errors import PreconditionError, ValidationError
from denguecast.imputation import (
    IterationEntry,
    PickInfo,
    _confidence,
    _knn_mean,
    _minkowski,
    _nearest,
    _Regressor,
    coreg_impute,
    impute_larval,
)
from denguecast.nn_core import make_rng
from denguecast.specs import CoregCfg


def brute_force_knn(xs, ys, x, k, p):
    """Independent oracle: exhaustive distance computation + stable sort."""
    dists = []
    for idx, row in enumerate(xs):
        d = sum(abs(a - b) ** p for a, b in zip(row, x)) ** (1.0 / p)
        dists.append((d, idx))
    dists.sort(key=lambda t: (t[0], t[1]))
    chosen = dists[: min(k, len(xs))]
    return sum(ys[i] for _, i in chosen) / len(chosen)


def seeded_examples(n, dim=4, seed=0):
    """(xs, ys): n rows of normal features, labels uniform in [1, 3]."""
    rng = make_rng(seed)
    rows, labels = [], []
    for _ in range(n):
        rows.append(rng.normal(size=dim))
        labels.append(float(rng.uniform(1, 3)))
    return np.stack(rows), np.array(labels)


def knn_mean(xs, ys, x, k, p):
    """_knn_mean over (n, d) rows, which it reads feature-major."""
    return _knn_mean(ys, np.ascontiguousarray(xs.T), x, k, p)


class TestKnnPredict:
    def test_exact_match_k1(self):
        xs, ys = seeded_examples(10)
        assert knn_mean(xs, ys, xs[4], 1, 2.0) == ys[4]

    def test_k_equals_train_size_is_global_mean(self):
        xs, ys = seeded_examples(7)
        expected = sum(ys) / 7
        assert knn_mean(xs, ys, np.zeros(4), 7, 2.0) == pytest.approx(expected,
                                                                       abs=1e-12)

    def test_k_larger_than_train_uses_all(self):
        xs, ys = seeded_examples(5)
        expected = sum(ys) / 5
        assert knn_mean(xs, ys, np.ones(4), 50, 2.0) == pytest.approx(expected,
                                                                       abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 5.0, 1.0])
    def test_against_brute_force(self, p):
        xs, ys = seeded_examples(50, seed=13)
        rng = make_rng(14)
        for _ in range(20):
            x = rng.normal(size=4)
            assert knn_mean(xs, ys, x, 3, p) == pytest.approx(
                brute_force_knn(xs, ys, x, 3, p), abs=1e-12
            )

    def test_tie_break_earlier_index(self):
        xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ys = np.array([10.0, 20.0])
        # both at distance 1; earlier index wins
        assert knn_mean(xs, ys, np.zeros(2), 1, 2.0) == 10.0


class TestCfgValidation:
    def test_bad_k(self):
        with pytest.raises(ValidationError):
            CoregCfg(k=0)

    def test_bad_p(self):
        for orders in ({"p1": 0.5}, {"p2": 0.5}):
            with pytest.raises(ValidationError, match="order p. must be >= 1"):
                CoregCfg(**orders)

    def test_equal_orders_rejected(self):
        with pytest.raises(ValidationError):
            CoregCfg(p1=2.0, p2=2.0)

    def test_degenerate_equal_config_regressors_agree(self):
        # sanity check behind the CoregCfg rejection: same k and p means the
        # two would-be regressors are indistinguishable
        xs, ys = seeded_examples(30, seed=5)
        rng = make_rng(6)
        ut = np.stack([rng.normal(size=4) for _ in range(10)], axis=1)
        sides = [_Regressor(xs, ys, ut, 3, 2.0),
                 _Regressor(xs.copy(), ys.copy(), ut, 3, 2.0)]
        for side in sides:
            side.scan(np.arange(10))
        for x in ut.T:
            d1, d2 = (_minkowski(side.xt, x, side.p) for side in sides)
            assert d1.tolist() == d2.tolist()
        assert sides[0].cand.idx.tolist() == sides[1].cand.idx.tolist()

    def test_k1_rejected(self):
        # each training point would be its own nearest neighbour: no picks
        with pytest.raises(ValidationError, match="k >= 2"):
            CoregCfg(k=1)

    def test_bad_iters_and_pool(self):
        with pytest.raises(ValidationError):
            CoregCfg(max_iters=0)
        with pytest.raises(ValidationError):
            CoregCfg(pool_size=0)


def smooth_dataset(n=40, seed=3):
    """(xs, ys): y varies smoothly with x so confidence deltas behave
    predictably."""
    rng = make_rng(seed)
    xs = np.stack([rng.uniform(0, 1, size=2) for _ in range(n)])
    return xs, 2.0 + 0.8 * np.sin(xs[:, 0] * 3)


def brute_force_delta(xs, ys, cand_x, cand_y, k, p):
    """Recompute the confidence from scratch using the brute-force kNN."""
    dists = sorted(
        (sum(abs(a - b) ** p for a, b in zip(row, cand_x)) ** (1.0 / p), i)
        for i, row in enumerate(xs)
    )
    omega = [i for _, i in dists[: min(k, len(xs))]]
    xs_aug = np.vstack([xs, np.asarray(cand_x)[None, :]])
    ys_aug = np.append(ys, cand_y)
    delta = 0.0
    for i in omega:
        before = ys[i] - brute_force_knn(xs, ys, xs[i], k, p)
        after = ys[i] - brute_force_knn(xs_aug, ys_aug, xs[i], k, p)
        delta += before**2 - after**2
    return delta


def confidence(xs, ys, cand_x, cand_y, k, p):
    """The scan's confidence of labeling cand_x as cand_y, on a fresh regressor."""
    reg = _Regressor(xs, ys, np.asarray(cand_x)[:, None], k, p)
    reg.scan(np.array([0]))
    return float(_confidence(reg, np.array([0]), np.array([cand_y]))[0])


class TestCoregConfidence:
    def test_duplicate_candidate_k1_is_zero(self):
        xs, ys = smooth_dataset()
        assert confidence(xs, ys, xs[3], ys[3], 1, 2.0) == 0.0

    def test_duplicate_candidate_nonnegative(self):
        xs, ys = smooth_dataset()
        for i in (0, 7, 19):
            delta = confidence(xs, ys, xs[i], ys[i], 3, 2.0)
            oracle = brute_force_delta(xs, ys, xs[i], ys[i], 3, 2.0)
            assert delta == pytest.approx(oracle, abs=1e-12)
            assert delta >= 0.0

    def test_wild_label_negative_delta(self):
        xs, ys = smooth_dataset()
        x = np.array([0.5, 0.5])
        delta = confidence(xs, ys, x, 50.0, 3, 2.0)
        oracle = brute_force_delta(xs, ys, x, 50.0, 3, 2.0)
        assert delta == pytest.approx(oracle, abs=1e-10)
        assert delta < 0.0

    def test_matches_oracle_on_random_candidates(self):
        xs, ys = smooth_dataset(seed=11)
        rng = make_rng(12)
        for _ in range(15):
            x = rng.uniform(0, 1, size=2)
            y = float(rng.uniform(1, 3))
            assert confidence(xs, ys, x, y, 3, 5.0) == pytest.approx(
                brute_force_delta(xs, ys, x, y, 3, 5.0), abs=1e-10
            )


class TestCoregImpute:
    def test_empty_unlabeled(self):
        xs, ys = smooth_dataset()
        imputed, log = coreg_impute(xs, ys, np.empty((0, 2)), CoregCfg())
        assert imputed == []
        assert log == []

    def test_empty_labeled(self):
        with pytest.raises(PreconditionError, match="no observed larval indices"):
            coreg_impute(np.empty((0, 2)), np.empty(0), np.zeros((1, 2)), CoregCfg())

    def test_constant_labels(self):
        rng = make_rng(2)
        xs = np.stack([rng.normal(size=3) for _ in range(20)])
        unlabeled = np.stack([rng.normal(size=3) for _ in range(8)])
        imputed, _ = coreg_impute(xs, np.full(20, 1.7), unlabeled, CoregCfg(seed=4))
        assert len(imputed) == 8
        assert all(v == pytest.approx(1.7, abs=1e-12) for v in imputed)

    def test_deterministic_log(self):
        xs, ys = smooth_dataset(seed=21)
        rng = make_rng(22)
        unlabeled = np.stack([rng.uniform(0, 1, size=2) for _ in range(25)])
        cfg = CoregCfg(max_iters=10, pool_size=10, seed=5)
        im1, log1 = coreg_impute(xs, ys, unlabeled, cfg)
        im2, log2 = coreg_impute(xs, ys, unlabeled, cfg)
        assert im1 == im2
        assert log1 == log2
        assert [e.line() for e in log1] == [e.line() for e in log2]

    def test_imputed_within_label_range(self):
        xs, ys = smooth_dataset(seed=31)
        rng = make_rng(32)
        unlabeled = np.stack([rng.uniform(0, 1, size=2) for _ in range(30)])
        imputed, _ = coreg_impute(xs, ys, unlabeled, CoregCfg(seed=6))
        for v in imputed:
            assert min(ys) - 1e-12 <= v <= max(ys) + 1e-12

    def test_growth_bounded_and_terminates(self):
        xs, ys = smooth_dataset(seed=41)
        rng = make_rng(42)
        unlabeled = np.stack([rng.uniform(0, 1, size=2) for _ in range(30)])
        cfg = CoregCfg(max_iters=12, pool_size=8, seed=7)
        _, log = coreg_impute(xs, ys, unlabeled, cfg)
        assert len(log) <= 12
        prev = (len(ys), len(ys))
        for entry in log:
            n1, n2 = entry.train_sizes
            assert n1 + n2 <= prev[0] + prev[1] + 2
            prev = (n1, n2)

    def test_pool_points_not_reselected(self):
        xs, ys = smooth_dataset(seed=51)
        rng = make_rng(52)
        unlabeled = np.stack([rng.uniform(0, 1, size=2) for _ in range(20)])
        _, log = coreg_impute(xs, ys, unlabeled,
                              CoregCfg(max_iters=20, pool_size=20, seed=8))
        seen = []
        for entry in log:
            for pick in entry.picks:
                if pick is not None:
                    seen.append(pick.index)
        assert len(seen) == len(set(seen))

    def test_beats_mean_imputation_on_seasonal_signal(self):
        # y = sin(2*pi*month/12) with 30% masked; features carry the month
        wins = 0
        seeds = range(6)
        for seed in seeds:
            rng = make_rng(1000 + seed)
            xs, ys = [], []
            for _ in range(120):
                month = int(rng.integers(1, 13))
                angle = 2 * math.pi * month / 12.0
                x = np.array([math.sin(angle), math.cos(angle),
                              float(rng.uniform(0, 1))])
                xs.append(x)
                ys.append(math.sin(angle) + float(rng.normal(0, 0.1)))
            xs, ys = np.stack(xs), np.array(ys)
            mask = rng.random(120) < 0.3
            truth = xs[mask, 0]  # noise-free signal
            imputed, _ = coreg_impute(
                xs[~mask], ys[~mask], xs[mask],
                CoregCfg(max_iters=25, pool_size=40, seed=seed),
            )
            mean_label = np.mean(ys[~mask])
            rmse_coreg = math.sqrt(np.mean((np.array(imputed) - truth) ** 2))
            rmse_mean = math.sqrt(np.mean((mean_label - truth) ** 2))
            wins += rmse_coreg < rmse_mean
        assert wins == len(list(seeds))


# Reference COREG that re-runs every kNN query from scratch: each scanned
# candidate costs seven full distance scans and stable argsorts. The
# incremental scan in denguecast.imputation must reproduce it bit for bit.


def _ref_minkowski(xs, x, p):
    d = np.abs(xs - x)
    if p == 2.0:
        return np.sqrt(np.sum(d * d, axis=1))
    return np.sum(d**p, axis=1) ** (1.0 / p)


def _ref_knn_mean(xs, ys, x, k, p):
    dist = _ref_minkowski(xs, x, p)
    order = np.argsort(dist, kind="stable")
    return float(np.mean(ys[order[: min(k, len(ys))]]))


def _ref_confidence(xs, ys, cand_x, cand_y, k, p):
    dist = _ref_minkowski(xs, cand_x, p)
    order = np.argsort(dist, kind="stable")
    omega = order[: min(k, len(ys))]
    xs_aug = np.vstack([xs, cand_x[None, :]])
    ys_aug = np.append(ys, cand_y)
    delta = 0.0
    for i in omega:
        before = ys[i] - _ref_knn_mean(xs, ys, xs[i], k, p)
        after = ys_aug[i] - _ref_knn_mean(xs_aug, ys_aug, xs[i], k, p)
        delta += before * before - after * after
    return float(delta)


def _ref_best_candidate(xs, ys, unlabeled, pool, taken, k, p):
    best = None
    for u in pool:
        if u in taken:
            continue
        x_u = unlabeled[u]
        y_hat = _ref_knn_mean(xs, ys, x_u, k, p)
        delta = _ref_confidence(xs, ys, x_u, y_hat, k, p)
        if delta <= 0.0:
            continue
        if best is None or delta > best.delta or (delta == best.delta and u < best.index):
            best = PickInfo(index=u, label=y_hat, delta=delta)
    return best


def _ref_coreg_impute(xs, ys, unlabeled, cfg):
    sides = [
        {"xs": xs.copy(), "ys": ys.copy(), "p": cfg.p1},
        {"xs": xs.copy(), "ys": ys.copy(), "p": cfg.p2},
    ]
    remaining = list(range(len(unlabeled)))
    rng = make_rng(cfg.seed)
    log = []
    for iteration in range(1, cfg.max_iters + 1):
        if not remaining:
            break
        pool_size = min(cfg.pool_size, len(remaining))
        pool_positions = rng.choice(len(remaining), size=pool_size, replace=False)
        pool = sorted(remaining[i] for i in pool_positions)
        picks = []
        taken = set()
        for side in sides:
            pick = _ref_best_candidate(
                side["xs"], side["ys"], unlabeled, pool, taken, cfg.k, side["p"],
            )
            picks.append(pick)
            if pick is not None:
                taken.add(pick.index)
        for j, pick in enumerate(picks):
            if pick is None:
                continue
            peer = sides[1 - j]
            peer["xs"] = np.vstack([peer["xs"], unlabeled[pick.index][None, :]])
            peer["ys"] = np.append(peer["ys"], pick.label)
            remaining.remove(pick.index)
        log.append(IterationEntry(iteration, (picks[0], picks[1]),
                                  (len(sides[0]["ys"]), len(sides[1]["ys"]))))
        if picks[0] is None and picks[1] is None:
            break
    imputed = []
    for x in unlabeled:
        y1, y2 = (_ref_knn_mean(side["xs"], side["ys"], x, cfg.k, side["p"])
                  for side in sides)
        imputed.append(0.5 * (y1 + y2))
    return imputed, log


def _coreg_problem(n_labeled, n_unlabeled, grid, seed):
    """Labels vary smoothly with x; grid=True puts x on a small integer grid,
    so many points coincide and distances tie exactly."""
    rng = make_rng(seed)

    def draw():
        if grid:
            return rng.integers(0, 5, size=2).astype(np.float64)
        return rng.uniform(0, 1, size=2)

    rows, labels = [], []
    for _ in range(n_labeled):
        x = draw()
        rows.append(x)
        labels.append(float(2.0 + 0.3 * x[0] - 0.2 * x[1] + rng.normal(0, 0.1)))
    unlabeled = np.stack([draw() for _ in range(n_unlabeled)])
    return np.stack(rows), np.array(labels), unlabeled


class TestIncrementalScanMatchesReference:
    # (k, p1, p2, n_labeled, grid, data seed, minimum picks). With k=1 every
    # distinct point is its own nearest neighbour, so deltas are 0: the
    # confidence cases keep k=1, and CoregCfg rejects it. The other cases
    # pick often enough that cached neighbourhoods are updated in place.
    CASES = [
        (1, 2.0, 5.0, 40, False, 71, 0),
        (3, 1.0, 2.0, 40, False, 73, 20),
        (7, 5.0, 1.0, 40, False, 77, 20),
        (1, 5.0, 1.0, 30, True, 71, 0),
        (3, 1.0, 2.0, 40, True, 73, 10),
        (7, 2.0, 5.0, 30, True, 77, 20),
        # k larger than the labeled set
        (7, 1.0, 5.0, 4, False, 7, 20),
        (3, 2.0, 1.0, 2, True, 2, 20),
        # numpy's pairwise sum starts at 8 values: the batched means of rows
        # of 8 and 9 labels must still match a lone np.mean of each
        (8, 2.0, 5.0, 40, False, 79, 20),
        (9, 5.0, 2.0, 30, True, 81, 20),
        (8, 5.0, 1.0, 6, False, 8, 20),  # rows widen from 6 to 8 labels
    ]

    @pytest.mark.parametrize("k,p1,p2,n_labeled,grid,seed,min_picks",
                             [case for case in CASES if case[0] > 1])
    def test_log_and_imputed_values_identical(self, k, p1, p2, n_labeled, grid,
                                              seed, min_picks):
        xs, ys, unlabeled = _coreg_problem(n_labeled, 40, grid, seed)
        cfg = CoregCfg(k=k, p1=p1, p2=p2, max_iters=25, pool_size=12, seed=k)
        imputed, log = coreg_impute(xs, ys, unlabeled, cfg)
        ref_imputed, ref_log = _ref_coreg_impute(xs, ys, unlabeled, cfg)
        assert [e.line() for e in log] == [e.line() for e in ref_log]
        assert imputed == ref_imputed
        assert sum(p is not None for e in log for p in e.picks) >= min_picks

    # pool_size >= the 40 unlabeled rows: iteration 1 scans, and so caches,
    # every candidate of both regressors, and each pick after it updates them
    @pytest.mark.parametrize("k,p1,p2,n_labeled,grid,seed,min_picks",
                             [case for case in CASES if case[0] > 1])
    @pytest.mark.parametrize("pool_size", [40, 60])
    def test_identical_with_every_candidate_cached_at_once(
            self, k, p1, p2, n_labeled, grid, seed, min_picks, pool_size):
        xs, ys, unlabeled = _coreg_problem(n_labeled, 40, grid, seed)
        cfg = CoregCfg(k=k, p1=p1, p2=p2, max_iters=25, pool_size=pool_size, seed=k)
        imputed, log = coreg_impute(xs, ys, unlabeled, cfg)
        ref_imputed, ref_log = _ref_coreg_impute(xs, ys, unlabeled, cfg)
        assert [e.line() for e in log] == [e.line() for e in ref_log]
        assert imputed == ref_imputed
        assert sum(p is not None for e in log for p in e.picks) >= min_picks

    def test_transferred_point_ties_a_cached_candidate_neighbour(self, monkeypatch):
        # on the integer grid a transferred point is often exactly as far from
        # a cached candidate as one of that candidate's k neighbours
        ties = []
        add = _Regressor.add

        def add_counting_ties(reg, x, y):
            dist = _minkowski(reg.ut, x, reg.p).tolist()
            for u in np.flatnonzero(reg.cand.known):
                row = reg.cand.dist[u].tolist()
                pos = sum(d <= dist[u] for d in row)  # after equal distances
                if 0 < pos < reg.k and row[pos - 1] == dist[u]:
                    ties.append(u)
            add(reg, x, y)

        monkeypatch.setattr(_Regressor, "add", add_counting_ties)
        xs, ys, unlabeled = _coreg_problem(30, 40, True, 77)
        cfg = CoregCfg(k=7, p1=2.0, p2=5.0, max_iters=25, pool_size=40, seed=7)
        imputed, log = coreg_impute(xs, ys, unlabeled, cfg)
        ref_imputed, ref_log = _ref_coreg_impute(xs, ys, unlabeled, cfg)
        assert ties
        assert [e.line() for e in log] == [e.line() for e in ref_log]
        assert imputed == ref_imputed

    def test_added_point_enters_a_candidate_after_equal_distances(self):
        xs = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0]])
        ys = np.array([1.0, 2.0, 3.0])
        ut = np.array([[1.0], [0.0]])  # one candidate, 1 from points 0 and 1
        reg = _Regressor(xs, ys, ut, 3, 2.0)
        reg.scan(np.array([0]))
        assert reg.cand.idx[0].tolist() == [0, 1, 2]
        reg.add(np.array([1.0, 1.0]), 9.0)  # also 1 from the candidate
        fresh = _Regressor(np.vstack([xs, [1.0, 1.0]]), np.append(ys, 9.0), ut, 3, 2.0)
        fresh.scan(np.array([0]))
        cached, scanned = reg.cand, fresh.cand
        assert cached.idx[0].tolist() == scanned.idx[0].tolist() == [0, 1, 3]
        assert cached.dist[0].tolist() == scanned.dist[0].tolist() == [1.0, 1.0, 1.0]
        assert cached.lab[0].tolist() == scanned.lab[0].tolist() == [1.0, 2.0, 9.0]
        assert cached.mean[0] == scanned.mean[0] == 4.0

    @pytest.mark.parametrize("k,p1,p2,n_labeled,grid,seed,min_picks", CASES)
    def test_confidence_identical(self, k, p1, p2, n_labeled, grid, seed,
                                  min_picks):
        xs, ys, candidates = _coreg_problem(n_labeled, 10, grid, seed + 1)
        labels = [1.5 + 0.1 * j for j in range(10)]
        ref = [_ref_confidence(xs, ys, x, y, k, p1) for x, y in zip(candidates, labels)]
        assert [confidence(xs, ys, x, y, k, p1)
                for x, y in zip(candidates, labels)] == ref
        # the ten as one pool, as _best_candidate scores them
        reg = _Regressor(xs, ys, np.ascontiguousarray(candidates.T), k, p1)
        reg.scan(np.arange(10))
        assert _confidence(reg, np.arange(10), np.array(labels)).tolist() == ref


class TestMinkowski:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("dim", [2, 5, 7])
    def test_feature_major_equals_row_wise(self, p, dim):
        # the feature-major sum adds features left to right; the row-wise one
        # does too below 8 features
        rng = make_rng(dim)
        spread = rng.normal(size=(200, dim)) * rng.uniform(0.1, 100, size=dim)
        grid = rng.integers(0, 4, size=(100, dim)).astype(np.float64)  # ties
        xs = np.vstack([spread, grid, spread[:50], grid[:50]])  # duplicate rows
        xt = np.ascontiguousarray(xs.T)
        for x in (*spread[:10], *grid[:10], rng.normal(size=dim)):
            assert _minkowski(xt, x, p).tolist() == _ref_minkowski(xs, x, p).tolist()


class TestNearest:
    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_equals_stable_argsort_prefix(self, n):
        rng = make_rng(n)
        for _ in range(20):
            dist = rng.integers(0, 4, size=n).astype(np.float64)  # many ties
            for k in range(1, n + 3):
                expected = np.argsort(dist, kind="stable")[:k]
                assert _nearest(dist, k).tolist() == expected.tolist()


class TestImputeLarval:
    def _records(self, n=36, missing_every=3):
        rng = make_rng(60)
        out = []
        for i in range(n):
            month = (2018 + i // 12, i % 12 + 1)
            observed = missing_every == 0 or i % missing_every != 1
            out.append(
                DistrictMonthRecord(
                    district="D1", month=month,
                    temp_mean=float(rng.uniform(20, 35)),
                    rh_mean=float(rng.uniform(40, 90)),
                    rain_total=float(rng.uniform(0, 200)),
                    larval_index=(
                        float(1.8 + 0.6 * math.sin(2 * math.pi * month[1] / 12))
                        if observed else None
                    ),
                    cases=int(rng.integers(0, 30)),
                )
            )
        return out

    def test_nothing_missing_is_noop(self):
        records = self._records(missing_every=0)
        filled, provenance, log = impute_larval(records, CoregCfg(seed=1))
        assert filled == records
        assert set(provenance) == {"observed"}
        assert log == []

    def test_fills_all_missing(self):
        records = self._records()
        filled, provenance, _ = impute_larval(records, CoregCfg(seed=1))
        assert all(r.larval_index is not None for r in filled)
        assert provenance.count("imputed") == sum(
            1 for r in records if r.larval_index is None
        )

    def test_no_labels_at_all(self):
        records = [
            DistrictMonthRecord("D1", (2018, m), 30.0, 70.0, 50.0, None, 2)
            for m in range(1, 7)
        ]
        with pytest.raises(PreconditionError, match="no observed larval indices"):
            impute_larval(records, CoregCfg(seed=1))
