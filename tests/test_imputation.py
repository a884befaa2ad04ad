import math

import numpy as np
import pytest

from denguecast.dataprep import DistrictMonthRecord
from denguecast.errors import PreconditionError, ValidationError
from denguecast.imputation import (
    CoregCfg,
    IterationEntry,
    KnnRegressorCfg,
    LabeledExample,
    PickInfo,
    _nearest,
    coreg_confidence,
    coreg_impute,
    impute_larval,
    knn_predict,
)
from denguecast.nn_core import make_rng


def brute_force_knn(train, x, k, p):
    """Independent oracle: exhaustive distance computation + stable sort."""
    dists = []
    for idx, ex in enumerate(train):
        d = sum(abs(a - b) ** p for a, b in zip(ex.x, x)) ** (1.0 / p)
        dists.append((d, idx))
    dists.sort(key=lambda t: (t[0], t[1]))
    chosen = dists[: min(k, len(train))]
    return sum(train[i].y for _, i in chosen) / len(chosen)


def seeded_examples(n, dim=4, seed=0):
    rng = make_rng(seed)
    return [
        LabeledExample(x=rng.normal(size=dim), y=float(rng.uniform(1, 3)))
        for _ in range(n)
    ]


class TestKnnPredict:
    def test_exact_match_k1(self):
        train = seeded_examples(10)
        cfg = KnnRegressorCfg(k=1, p=2.0)
        assert knn_predict(train, train[4].x, cfg) == train[4].y

    def test_k_equals_train_size_is_global_mean(self):
        train = seeded_examples(7)
        cfg = KnnRegressorCfg(k=7, p=2.0)
        expected = sum(ex.y for ex in train) / 7
        assert knn_predict(train, np.zeros(4), cfg) == pytest.approx(expected, abs=1e-12)

    def test_k_larger_than_train_uses_all(self):
        train = seeded_examples(5)
        cfg = KnnRegressorCfg(k=50, p=2.0)
        expected = sum(ex.y for ex in train) / 5
        assert knn_predict(train, np.ones(4), cfg) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [2.0, 5.0, 1.0])
    def test_against_brute_force(self, p):
        train = seeded_examples(50, seed=13)
        rng = make_rng(14)
        cfg = KnnRegressorCfg(k=3, p=p)
        for _ in range(20):
            x = rng.normal(size=4)
            assert knn_predict(train, x, cfg) == pytest.approx(
                brute_force_knn(train, x, 3, p), abs=1e-12
            )

    def test_tie_break_earlier_index(self):
        train = [
            LabeledExample(x=np.array([1.0, 0.0]), y=10.0),
            LabeledExample(x=np.array([-1.0, 0.0]), y=20.0),
        ]
        # both at distance 1; earlier index wins
        assert knn_predict(train, np.zeros(2), KnnRegressorCfg(k=1, p=2.0)) == 10.0

    def test_empty_train(self):
        with pytest.raises(PreconditionError, match="no training examples"):
            knn_predict([], np.zeros(2), KnnRegressorCfg())


class TestCfgValidation:
    def test_bad_k(self):
        with pytest.raises(ValidationError):
            KnnRegressorCfg(k=0)

    def test_bad_p(self):
        with pytest.raises(ValidationError):
            KnnRegressorCfg(p=0.5)

    def test_equal_orders_rejected(self):
        with pytest.raises(ValidationError):
            CoregCfg(cfg1=KnnRegressorCfg(p=2.0), cfg2=KnnRegressorCfg(p=2.0))

    def test_degenerate_equal_config_regressors_agree(self):
        # sanity check behind the CoregCfg rejection: same k and p means the
        # two would-be regressors are indistinguishable
        train = seeded_examples(30, seed=5)
        cfg = KnnRegressorCfg(k=3, p=2.0)
        rng = make_rng(6)
        for _ in range(10):
            x = rng.normal(size=4)
            assert knn_predict(train, x, cfg) == knn_predict(list(train), x, cfg)

    def test_k1_rejected(self):
        # each training point would be its own nearest neighbour: no picks
        for k1, k2 in ((1, 3), (3, 1)):
            with pytest.raises(ValidationError, match="k >= 2"):
                CoregCfg(cfg1=KnnRegressorCfg(k=k1, p=2.0),
                         cfg2=KnnRegressorCfg(k=k2, p=5.0))

    def test_bad_iters_and_pool(self):
        with pytest.raises(ValidationError):
            CoregCfg(max_iters=0)
        with pytest.raises(ValidationError):
            CoregCfg(pool_size=0)


def smooth_dataset(n=40, seed=3):
    """y varies smoothly with x so confidence deltas behave predictably."""
    rng = make_rng(seed)
    out = []
    for _ in range(n):
        x = rng.uniform(0, 1, size=2)
        out.append(LabeledExample(x=x, y=float(2.0 + 0.8 * math.sin(x[0] * 3))))
    return out


def brute_force_delta(train, cand_x, cand_y, k, p):
    """Recompute the confidence from scratch using the brute-force kNN."""
    dists = sorted(
        (sum(abs(a - b) ** p for a, b in zip(ex.x, cand_x)) ** (1.0 / p), i)
        for i, ex in enumerate(train)
    )
    omega = [i for _, i in dists[: min(k, len(train))]]
    augmented = list(train) + [LabeledExample(x=np.asarray(cand_x), y=cand_y)]
    delta = 0.0
    for i in omega:
        before = train[i].y - brute_force_knn(train, train[i].x, k, p)
        after = train[i].y - brute_force_knn(augmented, train[i].x, k, p)
        delta += before**2 - after**2
    return delta


class TestCoregConfidence:
    def test_duplicate_candidate_k1_is_zero(self):
        train = smooth_dataset()
        cfg = KnnRegressorCfg(k=1, p=2.0)
        delta = coreg_confidence(train, train[3].x, train[3].y, cfg)
        assert delta == 0.0

    def test_duplicate_candidate_nonnegative(self):
        train = smooth_dataset()
        cfg = KnnRegressorCfg(k=3, p=2.0)
        for i in (0, 7, 19):
            delta = coreg_confidence(train, train[i].x, train[i].y, cfg)
            oracle = brute_force_delta(train, train[i].x, train[i].y, 3, 2.0)
            assert delta == pytest.approx(oracle, abs=1e-12)
            assert delta >= 0.0

    def test_wild_label_negative_delta(self):
        train = smooth_dataset()
        cfg = KnnRegressorCfg(k=3, p=2.0)
        x = np.array([0.5, 0.5])
        delta = coreg_confidence(train, x, 50.0, cfg)
        oracle = brute_force_delta(train, x, 50.0, 3, 2.0)
        assert delta == pytest.approx(oracle, abs=1e-10)
        assert delta < 0.0

    def test_matches_oracle_on_random_candidates(self):
        train = smooth_dataset(seed=11)
        rng = make_rng(12)
        cfg = KnnRegressorCfg(k=3, p=5.0)
        for _ in range(15):
            x = rng.uniform(0, 1, size=2)
            y = float(rng.uniform(1, 3))
            assert coreg_confidence(train, x, y, cfg) == pytest.approx(
                brute_force_delta(train, x, y, 3, 5.0), abs=1e-10
            )


class TestCoregImpute:
    def test_empty_unlabeled(self):
        imputed, log = coreg_impute(smooth_dataset(), [], CoregCfg())
        assert imputed == {}
        assert log == []

    def test_empty_labeled(self):
        with pytest.raises(PreconditionError, match="zero labeled examples"):
            coreg_impute([], [np.zeros(2)], CoregCfg())

    def test_constant_labels(self):
        rng = make_rng(2)
        labeled = [LabeledExample(x=rng.normal(size=3), y=1.7) for _ in range(20)]
        unlabeled = [rng.normal(size=3) for _ in range(8)]
        imputed, _ = coreg_impute(labeled, unlabeled, CoregCfg(seed=4))
        assert set(imputed) == set(range(8))
        assert all(v == pytest.approx(1.7, abs=1e-12) for v in imputed.values())

    def test_deterministic_log(self):
        labeled = smooth_dataset(seed=21)
        rng = make_rng(22)
        unlabeled = [rng.uniform(0, 1, size=2) for _ in range(25)]
        cfg = CoregCfg(max_iters=10, pool_size=10, seed=5)
        im1, log1 = coreg_impute(labeled, unlabeled, cfg)
        im2, log2 = coreg_impute(labeled, unlabeled, cfg)
        assert im1 == im2
        assert log1 == log2
        assert [e.line() for e in log1] == [e.line() for e in log2]

    def test_imputed_within_label_range(self):
        labeled = smooth_dataset(seed=31)
        rng = make_rng(32)
        unlabeled = [rng.uniform(0, 1, size=2) for _ in range(30)]
        imputed, _ = coreg_impute(labeled, unlabeled, CoregCfg(seed=6))
        lo = min(ex.y for ex in labeled)
        hi = max(ex.y for ex in labeled)
        for v in imputed.values():
            assert lo - 1e-12 <= v <= hi + 1e-12

    def test_growth_bounded_and_terminates(self):
        labeled = smooth_dataset(seed=41)
        rng = make_rng(42)
        unlabeled = [rng.uniform(0, 1, size=2) for _ in range(30)]
        cfg = CoregCfg(max_iters=12, pool_size=8, seed=7)
        _, log = coreg_impute(labeled, unlabeled, cfg)
        assert len(log) <= 12
        prev = (len(labeled), len(labeled))
        for entry in log:
            n1, n2 = entry.train_sizes
            assert n1 + n2 <= prev[0] + prev[1] + 2
            prev = (n1, n2)

    def test_pool_points_not_reselected(self):
        labeled = smooth_dataset(seed=51)
        rng = make_rng(52)
        unlabeled = [rng.uniform(0, 1, size=2) for _ in range(20)]
        _, log = coreg_impute(labeled, unlabeled, CoregCfg(max_iters=20, pool_size=20,
                                                           seed=8))
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
            mask = rng.random(120) < 0.3
            labeled = [LabeledExample(x=xs[i], y=ys[i])
                       for i in range(120) if not mask[i]]
            unlabeled_idx = [i for i in range(120) if mask[i]]
            unlabeled = [xs[i] for i in unlabeled_idx]
            truth = [xs[i][0] for i in unlabeled_idx]  # noise-free signal
            imputed, _ = coreg_impute(
                labeled, unlabeled,
                CoregCfg(max_iters=25, pool_size=40, seed=seed),
            )
            mean_label = np.mean([ex.y for ex in labeled])
            rmse_coreg = math.sqrt(
                np.mean([(imputed[j] - truth[j]) ** 2 for j in range(len(unlabeled))])
            )
            rmse_mean = math.sqrt(
                np.mean([(mean_label - truth[j]) ** 2 for j in range(len(unlabeled))])
            )
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


def _ref_coreg_impute(labeled, unlabeled, cfg):
    xs0 = np.stack([ex.x for ex in labeled])
    ys0 = np.array([ex.y for ex in labeled])
    sides = [
        {"xs": xs0.copy(), "ys": ys0.copy(), "cfg": cfg.cfg1},
        {"xs": xs0.copy(), "ys": ys0.copy(), "cfg": cfg.cfg2},
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
                side["xs"], side["ys"], unlabeled, pool, taken,
                side["cfg"].k, side["cfg"].p,
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
    imputed = {}
    for i, x in enumerate(unlabeled):
        y1 = _ref_knn_mean(sides[0]["xs"], sides[0]["ys"], x, cfg.cfg1.k, cfg.cfg1.p)
        y2 = _ref_knn_mean(sides[1]["xs"], sides[1]["ys"], x, cfg.cfg2.k, cfg.cfg2.p)
        imputed[i] = 0.5 * (y1 + y2)
    return imputed, log


def _coreg_problem(n_labeled, n_unlabeled, grid, seed):
    """Labels vary smoothly with x; grid=True puts x on a small integer grid,
    so many points coincide and distances tie exactly."""
    rng = make_rng(seed)

    def draw():
        if grid:
            return rng.integers(0, 5, size=2).astype(np.float64)
        return rng.uniform(0, 1, size=2)

    labeled = []
    for _ in range(n_labeled):
        x = draw()
        labeled.append(LabeledExample(
            x=x, y=float(2.0 + 0.3 * x[0] - 0.2 * x[1] + rng.normal(0, 0.1))))
    return labeled, [draw() for _ in range(n_unlabeled)]


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
    ]

    @pytest.mark.parametrize("k,p1,p2,n_labeled,grid,seed,min_picks",
                             [case for case in CASES if case[0] > 1])
    def test_log_and_imputed_values_identical(self, k, p1, p2, n_labeled, grid,
                                              seed, min_picks):
        labeled, unlabeled = _coreg_problem(n_labeled, 40, grid, seed)
        cfg = CoregCfg(
            cfg1=KnnRegressorCfg(k=k, p=p1), cfg2=KnnRegressorCfg(k=k, p=p2),
            max_iters=25, pool_size=12, seed=k,
        )
        imputed, log = coreg_impute(labeled, unlabeled, cfg)
        ref_imputed, ref_log = _ref_coreg_impute(labeled, unlabeled, cfg)
        assert [e.line() for e in log] == [e.line() for e in ref_log]
        assert imputed == ref_imputed
        assert sum(p is not None for e in log for p in e.picks) >= min_picks

    @pytest.mark.parametrize("k,p1,p2,n_labeled,grid,seed,min_picks", CASES)
    def test_confidence_identical(self, k, p1, p2, n_labeled, grid, seed,
                                  min_picks):
        labeled, candidates = _coreg_problem(n_labeled, 10, grid, seed + 1)
        xs = np.stack([ex.x for ex in labeled])
        ys = np.array([ex.y for ex in labeled])
        cfg = KnnRegressorCfg(k=k, p=p1)
        for j, x in enumerate(candidates):
            y = 1.5 + 0.1 * j
            assert coreg_confidence(labeled, x, y, cfg) == _ref_confidence(
                xs, ys, x, y, k, p1)


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
