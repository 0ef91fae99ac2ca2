import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsurv.data import make_split
from latentsurv.evaluate import (
    CvReport,
    ModelCandidate,
    UndefinedCIndexError,
    c_index,
    run_cv,
    select_model,
)
from latentsurv.hazard import PenaltyConfig, ecph_predict, fit_ecph
from tests.conftest import count_calls, make_dataset, normal_block, make_survival
from latentsurv.data import Dataset


def brute_force_c_index(t_true, delta, t_pred, delta_pred=None):
    """Direct enumeration over ordered pairs: count concordant vs discordant
    comparable pairs, skipping pairs where either ordering is indeterminate
    under censoring."""
    t_true = np.asarray(t_true, float)
    delta = np.asarray(delta, float)
    t_pred = np.asarray(t_pred, float)
    if delta_pred is None:
        delta_pred = np.ones_like(t_pred)
    delta_pred = np.asarray(delta_pred, float)

    def orientation(a, da, b, db, i, j):
        # +1 if i is known to precede j, -1 if known to follow, 0 indeterminate
        before = a[i] <= a[j] and da[i] == 1
        after = a[i] >= a[j] and da[j] == 1
        return (1 if before else 0) - (1 if after else 0)

    num = den = 0.0
    N = t_true.size
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            s_true = orientation(t_true, delta, t_true, delta, i, j)
            s_pred = orientation(t_pred, delta_pred, t_pred, delta_pred, i, j)
            den += s_true * s_true
            num += s_true * s_pred
    if den <= 0:
        raise UndefinedCIndexError("no comparable pairs")
    return 0.5 * (num / den + 1.0)


def pair_terms(x, dx):
    """Pair term [x_n >= x_m] dx_m - [x_n <= x_m] dx_n over all ordered pairs
    n != m, zero on the diagonal."""
    terms = (x[:, None] >= x[None, :]) * dx[None, :] - (x[:, None] <= x[None, :]) * dx[:, None]
    np.fill_diagonal(terms, 0.0)
    return terms


def dense_c_index(t_true, delta, t_pred, delta_pred=None):
    """c_index from the dense N x N pair-term matrices: the same sums as the
    Fenwick count, in O(N^2) memory."""
    t_true, delta, t_pred = (np.asarray(a, float) for a in (t_true, delta, t_pred))
    delta_pred = np.ones_like(t_pred) if delta_pred is None else np.asarray(delta_pred, float)
    truth = pair_terms(t_true, delta)
    n_pairs = t_true.size * (t_true.size - 1)
    denom = float((truth * truth).sum() / n_pairs)
    if denom <= 0:
        raise UndefinedCIndexError("no comparable pairs; c-index undefined")
    num = float((truth * pair_terms(t_pred, delta_pred)).sum() / n_pairs)
    return 0.5 * (num / denom + 1.0)


TIED_VALUES = [0.5, 1.0, 1.5, 2.0, 3.0]
# dyadic weights keep every sum exact, so a zero denominator is exactly zero
WEIGHTS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]


@st.composite
def tied_cases(draw):
    n = draw(st.integers(2, 40))
    column = lambda values: np.array(draw(st.lists(st.sampled_from(values),
                                                   min_size=n, max_size=n)))
    return (column(TIED_VALUES), column(WEIGHTS), column(TIED_VALUES + [np.nan]),
            column(WEIGHTS))


class TestCIndexTrivial:
    def test_perfect_order(self):
        assert c_index([1, 2, 3], [1, 1, 1], [1, 2, 3]) == 1.0

    def test_reversed_order(self):
        assert c_index([1, 2, 3], [1, 1, 1], [3, 2, 1]) == 0.0

    def test_constant_predictions_half(self):
        assert c_index([1, 2, 3], [1, 1, 1], [5, 5, 5]) == pytest.approx(0.5)

    def test_all_censored_undefined(self):
        with pytest.raises(UndefinedCIndexError):
            c_index([1, 2, 3], [0, 0, 0], [1, 2, 3])

    def test_tied_true_times_cancel(self):
        # a tied pair of event times is ordered both ways, so its contribution
        # cancels; with only tied pairs the statistic is undefined
        with pytest.raises(UndefinedCIndexError):
            c_index([2, 2], [1, 1], [7, 7])
        # with one untied comparable pair present, the tied pair adds nothing
        assert c_index([2, 2, 4], [1, 1, 1], [1, 1, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            c_index([1, 2], [1, 1], [1, 2, 3])

    def test_too_few(self):
        with pytest.raises(ValueError):
            c_index([1], [1], [1])


class TestCIndexProperties:
    def test_matches_brute_force(self, rng):
        for _ in range(100):
            N = int(rng.integers(3, 9))
            t = rng.choice([0.5, 1.0, 1.5, 2.0], size=N)
            d = (rng.random(N) < 0.7).astype(float)
            p = rng.choice([0.5, 1.0, 1.5], size=N)
            dp = (rng.random(N) < 0.8).astype(float)
            if not d.any():
                d[0] = 1.0
            try:
                got = c_index(t, d, p, dp)
            except UndefinedCIndexError:
                with pytest.raises(UndefinedCIndexError):
                    brute_force_c_index(t, d, p, dp)
                continue
            assert got == pytest.approx(brute_force_c_index(t, d, p, dp), abs=1e-12)

    def test_harrell_reduction_no_ties(self, rng):
        """With distinct times and uncensored predictions the statistic equals
        Harrell's c: concordant usable pairs / usable pairs."""
        for _ in range(50):
            N = 10
            t = rng.permutation(N) + rng.random(N) * 0.1
            d = (rng.random(N) < 0.6).astype(float)
            p = rng.permutation(N).astype(float)
            if d.sum() == 0:
                d[0] = 1.0
            num = den = 0
            for i, j in itertools.permutations(range(N), 2):
                if d[i] == 1 and t[i] < t[j]:
                    den += 1
                    num += 1 if p[i] < p[j] else 0
            assert c_index(t, d, p) == pytest.approx(num / den)

    def test_reversal_symmetry(self, rng):
        t = rng.exponential(1, 12)
        d = (rng.random(12) < 0.7).astype(float)
        d[0] = 1.0
        p = rng.exponential(1, 12)
        assert c_index(t, d, p) + c_index(t, d, -p) == pytest.approx(1.0)

    def test_permutation_invariance(self, rng):
        t = rng.exponential(1, 10)
        d = (rng.random(10) < 0.7).astype(float)
        d[0] = 1.0
        p = rng.exponential(1, 10)
        perm = rng.permutation(10)
        assert c_index(t[perm], d[perm], p[perm]) == pytest.approx(c_index(t, d, p))

    def test_range(self, rng):
        for _ in range(30):
            t = rng.exponential(1, 8)
            d = (rng.random(8) < 0.5).astype(float)
            d[0] = 1.0
            p = rng.exponential(1, 8)
            assert 0.0 <= c_index(t, d, p) <= 1.0


class TestCIndexAgainstDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=tied_cases())
    def test_weighted_ties_match_oracle(self, case):
        """Heavy ties in t and p, NaN predictions, non-binary event weights."""
        try:
            want = dense_c_index(*case)
        except UndefinedCIndexError:
            with pytest.raises(UndefinedCIndexError):
                c_index(*case)
            return
        assert c_index(*case) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("where", ["delta", "delta_pred"])
    def test_nan_weight_gives_nan(self, where):
        case = {"t_true": [1.0, 2.0, 3.0], "delta": [1.0, 1.0, 0.0],
                "t_pred": [1.0, 2.0, 3.0], "delta_pred": [1.0, 1.0, 1.0]}
        case[where][2] = np.nan
        assert np.isnan(dense_c_index(**case)) and np.isnan(c_index(**case))

    def test_binary_events_equal_oracle_exactly(self, rng):
        N = 2000
        t = np.round(rng.exponential(1.0, N), 1)
        d = (rng.random(N) < 0.6).astype(float)
        p = np.round(rng.standard_normal(N), 1)
        dp = (rng.random(N) < 0.8).astype(float)
        assert c_index(t, d, p) == dense_c_index(t, d, p)
        assert c_index(t, d, p, dp) == dense_c_index(t, d, p, dp)

    def test_memory_linear_in_n(self, rng):
        N = 4000
        t = rng.permutation(N).astype(float)
        d = (rng.random(N) < 0.7).astype(float)
        p = rng.permutation(N).astype(float)
        tracemalloc.start()
        try:
            got = c_index(t, d, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # distinct times and predictions: Harrell's concordant share of usable pairs
        usable = (d[:, None] == 1) & (t[:, None] < t[None, :])
        concordant = usable & (p[:, None] < p[None, :])
        assert got == pytest.approx(concordant.sum() / usable.sum(), rel=1e-12)


class TestModelCandidate:
    def test_exactly_one_hyperparameter(self):
        with pytest.raises(ValueError):
            ModelCandidate(kind="fa_ecph_c", d_z=2, gamma=1.0)
        with pytest.raises(ValueError):
            ModelCandidate(kind="fa_ecph_c")

    def test_kind_field_consistency(self):
        with pytest.raises(ValueError):
            ModelCandidate(kind="ecph_c_l1", d_z=2)
        with pytest.raises(ValueError):
            ModelCandidate(kind="fa_ecph_c", gamma=1.0)

    @pytest.mark.parametrize("fields", [
        {"kind": "nonsense", "d_z": 2},
        {"kind": "fa_ecph_c", "d_z": 2, "fit_mode": "bogus"},
        {"kind": "ecph_c_l1", "gamma": 1.0, "fit_mode": "full"},
        {"kind": "ecph_c_fixed", "gamma": 1.0},
    ])
    def test_unknown_kind_or_fit_mode_rejected(self, fields):
        with pytest.raises(ValueError, match="unknown"):
            ModelCandidate(**fields)

    def test_candidate_ids(self):
        assert ModelCandidate(kind="fa_ecph_c", d_z=3).candidate_id == "latent_dz3_fast"
        full = ModelCandidate(kind="fa_ecph_c", d_z=3, fit_mode="full_mcem")
        assert full.candidate_id == "latent_dz3_full"
        assert ModelCandidate(kind="ecph_c_l1", gamma=0.5).candidate_id == "l1_gamma0.5"


class TestCvReport:
    def test_moments(self):
        r = CvReport.from_folds("a", [0.6, 0.8, 0.7])
        assert r.mean == pytest.approx(np.mean([0.6, 0.8, 0.7]))
        assert r.std == pytest.approx(np.std([0.6, 0.8, 0.7]))

    def test_empty_folds_nan(self):
        r = CvReport.from_folds("a", [], error_folds=(0, 1))
        assert np.isnan(r.mean)
        assert r.error_folds == (0, 1)


def signal_dataset(rng, N=60, d_z=2):
    """Gaussian block whose first latent coordinate drives the event hazard."""
    W = rng.normal(scale=1.0, size=(10, d_z))
    mu = rng.normal(size=10)
    psi = rng.uniform(0.5, 1.0, 10)
    Z = rng.standard_normal((d_z, N))
    block = normal_block(rng, 10, N, W=W, mu=mu, psi=psi, d_z=d_z)
    X = W @ Z + mu[:, None] + rng.standard_normal((10, N)) * np.sqrt(psi)[:, None]
    block = block.__class__(name=block.name, kind="normal", values=X,
                            feature_names=block.feature_names, b=1)
    eta_T = -0.2 + 1.0 * Z[0]
    t_lat = rng.exponential(np.exp(-eta_T))
    c_lat = rng.exponential(np.exp(0.2), N)
    times = np.minimum(t_lat, c_lat)
    events = t_lat <= c_lat
    return Dataset(blocks=(block,), survival=make_survival(times, events),
                   sample_ids=tuple(f"s{j}" for j in range(N)))


class TestRunCv:
    def test_report_structure(self, rng):
        ds = signal_dataset(rng)
        split = make_split(len(ds.sample_ids), test_fraction=0.2, n_folds=3, seed=1)
        cands = [ModelCandidate(kind="fa_ecph_c", d_z=2),
                 ModelCandidate(kind="ecph_c_l1", gamma=1.0)]
        reports = run_cv(ds, cands, split, seed=0)
        assert [r.candidate_id for r in reports] == [c.candidate_id for c in cands]
        for r in reports:
            assert len(r.fold_cindices) == 3
            assert all(0.0 <= c <= 1.0 for c in r.fold_cindices)
            assert not r.error_folds

    def test_folds_scored_on_holdout_only(self, rng):
        """Each fold's validation set is disjoint from its learning set, so
        the fold scores must be reproducible from manual refits."""
        from latentsurv.evaluate import fit_candidate, predict_candidate
        ds = signal_dataset(rng, N=40)
        split = make_split(40, test_fraction=0.25, n_folds=3, seed=2)
        cand = ModelCandidate(kind="fa_ecph_c", d_z=2)
        reports = run_cv(ds, [cand], split, seed=0)
        for v in range(3):
            learn = ds.subset(split.learning_indices(v))
            valid = ds.subset(split.folds[v])
            fitted = fit_candidate(cand, learn, 0)
            preds = predict_candidate(cand, fitted, valid)
            want = c_index(valid.times(), valid.events(), preds)
            assert reports[0].fold_cindices[v] == pytest.approx(want)

    def test_l1_folds_fit_and_score_the_event_part(self, rng, monkeypatch):
        """An L1 candidate's fold c-index is that of ``fit_ecph``'s event part
        on the fold, and each fold fits that part alone: one ``_fit_one`` per
        fold, where ``fit_ecph`` makes two."""
        import latentsurv.evaluate as evaluate_mod
        ds = signal_dataset(rng, N=40)
        split = make_split(40, test_fraction=0.25, n_folds=3, seed=2)
        want = []
        for v in range(3):
            learn = ds.subset(split.learning_indices(v))
            valid = ds.subset(split.folds[v])
            w_T, _ = fit_ecph(learn.stacked_values(), learn.survival,
                              penalty=PenaltyConfig(0.5, 0.5))
            want.append(c_index(valid.times(), valid.events(),
                                ecph_predict(w_T, valid.stacked_values())))
        fits = count_calls(monkeypatch, evaluate_mod, "_fit_one")
        [r] = run_cv(ds, [ModelCandidate(kind="ecph_c_l1", gamma=0.5)], split)
        assert r.fold_cindices == tuple(want)
        assert fits[0] == 3

    def test_heywood_exclusion_flagged(self, rng):
        # a noiseless rank-1 block collapses a noise variance to its floor
        N = 30
        Z = rng.standard_normal((1, N))
        W = np.ones((5, 1))
        X = W @ Z
        block = normal_block(rng, 5, N, d_z=1)
        block = block.__class__(name="pure", kind="normal", values=X,
                                feature_names=block.feature_names, b=1)
        times = rng.exponential(1.0, N)
        events = np.ones(N, dtype=bool)
        ds = Dataset(blocks=(block,), survival=make_survival(times, events),
                     sample_ids=tuple(f"s{j}" for j in range(N)))
        split = make_split(N, test_fraction=0.2, n_folds=3, seed=0)
        reports = run_cv(ds, [ModelCandidate(kind="fa_ecph_c", d_z=1)], split)
        assert reports[0].heywood_excluded

    def test_failed_fold_logs_one_warning_without_traceback(self, rng, caplog):
        ds = signal_dataset(rng, N=30)
        times = ds.times().copy()
        times[0] = 0.0
        ds = Dataset(blocks=ds.blocks, survival=make_survival(times, ds.events()),
                     sample_ids=ds.sample_ids)
        split = make_split(30, test_fraction=0.0, n_folds=3, seed=0)
        with caplog.at_level("WARNING", logger="latentsurv.evaluate"):
            [r] = run_cv(ds, [ModelCandidate(kind="ecph_c_l1", gamma=1.0)], split)
        # sample 0 is in the learning set of every fold but its own
        assert len(r.error_folds) == 2 and len(r.fold_cindices) == 1
        assert len(caplog.records) == 2
        for record, v in zip(caplog.records, r.error_folds):
            assert record.levelname == "WARNING" and not record.exc_info
            assert record.getMessage().startswith(
                f"candidate l1_gamma1 failed on fold {v}: ValueError: sample ")
            assert "adjust_zero_times" in record.getMessage()

    def test_failed_fold_from_a_code_fault_keeps_its_traceback(self, rng, caplog,
                                                                monkeypatch):
        import latentsurv.evaluate as evaluate_mod

        def broken(*args):
            raise TypeError("broken")

        monkeypatch.setattr(evaluate_mod, "fit_candidate", broken)
        ds = signal_dataset(rng, N=30)
        split = make_split(30, test_fraction=0.0, n_folds=3, seed=0)
        with caplog.at_level("WARNING", logger="latentsurv.evaluate"):
            [r] = run_cv(ds, [ModelCandidate(kind="ecph_c_l1", gamma=1.0)], split)
        assert r.error_folds == (0, 1, 2)
        assert len(caplog.records) == 3
        assert all(record.exc_info for record in caplog.records)

    def test_candidate_order_permutation(self, rng):
        ds = signal_dataset(rng, N=40)
        split = make_split(40, test_fraction=0.25, n_folds=3, seed=2)
        cands = [ModelCandidate(kind="fa_ecph_c", d_z=1),
                 ModelCandidate(kind="fa_ecph_c", d_z=2),
                 ModelCandidate(kind="ecph_c_l1", gamma=2.0)]
        r1 = {r.candidate_id: r for r in run_cv(ds, cands, split, seed=0)}
        r2 = {r.candidate_id: r for r in run_cv(ds, cands[::-1], split, seed=0)}
        for cid in r1:
            assert r1[cid].fold_cindices == r2[cid].fold_cindices


def report(cid, mean, std):
    return CvReport(candidate_id=cid, fold_cindices=(mean,), mean=mean, std=std)


def direct_selection(reports, candidates=()):
    """Prose restatement of the rule: start at the largest mean; while some
    not-yet-visited report's closed interval sits inside the leader's, jump to
    the largest-mean such report; answer is the final leader. Equal means go
    to the simpler candidate: an L1 one before any other (the larger gamma
    first), an id not among ``candidates`` next, then the smaller d_z; after
    that, the report listed first."""
    by_id = {c.candidate_id: c for c in candidates}

    def simplicity(r):  # larger is simpler
        c = by_id.get(r.candidate_id)
        if c is None:
            return (1, 0.0)
        return (2, c.gamma) if c.kind == "ecph_c_l1" else (0, -c.d_z)

    def best(rs):  # max returns the first of equal keys
        return max(rs, key=lambda r: (r.mean, *simplicity(r)))

    usable = [r for r in reports if not r.heywood_excluded and r.fold_cindices]
    leader = best(usable)
    visited = {leader.candidate_id}
    while True:
        lo, hi = leader.mean - leader.std, leader.mean + leader.std
        nested = [r for r in usable if r.candidate_id not in visited
                  and lo <= r.mean - r.std and r.mean + r.std <= hi]
        if not nested:
            return leader.candidate_id
        leader = best(nested)
        visited.add(leader.candidate_id)


class TestSelectModel:
    def test_worked_example(self):
        # leader 0.82 +/- 0.04 -> [0.78, 0.86]; 0.81 +/- 0.03 -> [0.78, 0.84]
        # nests inside and becomes the answer; 0.72 +/- 0.08 never nests
        reports = [report("a", 0.82, 0.04), report("b", 0.81, 0.03),
                   report("c", 0.72, 0.08)]
        assert select_model(reports) == "b"

    def test_single_report(self):
        assert select_model([report("only", 0.7, 0.1)]) == "only"

    def test_disjoint_intervals_keep_leader(self):
        reports = [report("a", 0.9, 0.01), report("b", 0.6, 0.01)]
        assert select_model(reports) == "a"

    def test_chain_of_nested_intervals(self):
        reports = [report("a", 0.80, 0.10), report("b", 0.79, 0.05),
                   report("c", 0.78, 0.01)]
        assert select_model(reports) == "c"

    def test_all_excluded_raises(self):
        r = CvReport(candidate_id="x", fold_cindices=(0.8,), mean=0.8, std=0.1,
                     heywood_excluded=True)
        with pytest.raises(ValueError):
            select_model([r])

    def test_excluded_candidates_skipped(self):
        bad = CvReport(candidate_id="bad", fold_cindices=(0.99,), mean=0.99,
                       std=0.0, heywood_excluded=True)
        assert select_model([bad, report("ok", 0.7, 0.05)]) == "ok"

    def test_randomized_against_direct_implementation(self, rng):
        """Means and standard deviations drawn from short lists, so that tied
        means and equal intervals are common; some reports Heywood-excluded or
        with no scored fold; the candidates passed, some of them, or none."""
        grid = ([ModelCandidate(kind="fa_ecph_c", d_z=d) for d in (1, 2, 3)]
                + [ModelCandidate(kind="fa_ecph_c", d_z=2, fit_mode="full_mcem")]
                + [ModelCandidate(kind="ecph_c_l1", gamma=g) for g in (0.0, 0.5, 8.0)])
        for trial in range(2000):
            k = int(rng.integers(1, 8))
            cands = [grid[i] for i in rng.permutation(len(grid))[:k]]
            reports = []
            for i, cand in enumerate(cands):
                cid = cand.candidate_id if rng.random() < 0.8 else f"other{i}"
                if rng.random() < 0.1:
                    reports.append(CvReport.from_folds(cid, [], error_folds=(0,)))
                    continue
                mean = float(rng.choice([0.6, 0.7, 0.75, 0.8]))
                std = float(rng.choice([0.0, 0.05, 0.1, 0.15]))
                reports.append(CvReport(candidate_id=cid, fold_cindices=(mean,), mean=mean,
                                        std=std, heywood_excluded=bool(rng.random() < 0.15)))
            passed = [cands, cands[:int(rng.integers(0, k + 1))], None][trial % 3]
            if not any(not r.heywood_excluded and r.fold_cindices for r in reports):
                with pytest.raises(ValueError):
                    select_model(reports, passed)
                continue
            assert select_model(reports, passed) == direct_selection(reports, passed or ())
