import hashlib

import numpy as np
import pytest

from obsorder import OrderAutomorphism, ValidationError, max_lambda, rank_numeric
from obsorder.generators import (
    random_automorphism,
    random_hermitian,
    random_invertible,
    random_psd,
    random_unitary,
)
from obsorder.harness import SUITE_NAMES, bisection_max_lambda, replay_trial, run_suite


class TestGenerators:
    def test_deterministic(self):
        a = random_hermitian(np.random.default_rng(11), 4)
        b = random_hermitian(np.random.default_rng(11), 4)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        a = random_hermitian(np.random.default_rng(1), 4)
        b = random_hermitian(np.random.default_rng(2), 4)
        assert np.max(np.abs(a - b)) > 1e-3

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_psd_rank_exact(self, rank):
        for seed in range(10):
            m = random_psd(np.random.default_rng(seed), 4, rank)
            assert rank_numeric(m) == rank
            assert np.linalg.eigvalsh(m)[0] >= -1e-12

    def test_psd_rank_requires_rank(self):
        # a rank above the dimension is never drawn
        with pytest.raises(ValidationError):
            random_psd(np.random.default_rng(0), 3, 4)

    def test_rank_one(self):
        m = random_psd(np.random.default_rng(3), 5, 1)
        assert rank_numeric(m) == 1
        lam = np.linalg.eigvalsh(m)[-1]
        assert 0.5 <= lam <= 2.0

    def test_unitary_residual(self):
        for seed in range(20):
            u = random_unitary(np.random.default_rng(seed), 5)
            assert np.linalg.norm(u.conj().T @ u - np.eye(5), 2) <= 1e-12

    def test_invertible_condition(self):
        for seed in range(20):
            t = random_invertible(np.random.default_rng(seed), 6)
            s = np.linalg.svd(t, compute_uv=False)
            assert s[0] / s[-1] <= 1e4

    def test_automorphism(self):
        phi = random_automorphism(np.random.default_rng(9), 3)
        assert isinstance(phi, OrderAutomorphism)
        assert phi.T.shape == (3, 3)


class TestBisectionOracle:
    def test_identity(self):
        lam = bisection_max_lambda(np.array([1.0, 0.0]), np.eye(2))
        assert lam == pytest.approx(1.0, rel=1e-8)

    def test_infeasible(self):
        assert bisection_max_lambda(np.array([0.0, 1.0]), np.diag([1.0, 0.0])) is None

    def test_diagonal(self):
        lam = bisection_max_lambda(np.array([0.0, 1.0]), np.diag([1.0, 7.0]))
        assert lam == pytest.approx(7.0, rel=1e-8)

    def test_below_the_start_lambda(self):
        # the search starts at 1e-6 * max(1, ||B||); the answer here is 1e-7
        b, x = 1e-7 * np.diag([1.0, 0.5]), np.array([1.0, 0.0])
        # accurate to the floor's share of the start lambda, 1e-6 relative ...
        assert bisection_max_lambda(x, b) == pytest.approx(max_lambda(x, b), rel=2e-6)
        # ... and to the bisection tolerance when the floor is far below it
        lam = bisection_max_lambda(x, b, feas_floor=1e-20)
        assert lam == pytest.approx(max_lambda(x, b), rel=1e-8)

    def test_out_of_range_stays_infeasible_at_small_norm(self):
        assert bisection_max_lambda(np.array([0.0, 1.0]), 1e-7 * np.diag([1.0, 0.0])) is None

    @pytest.mark.parametrize("w", [1e-3, 1e-4, 1e-5])
    def test_slightly_out_of_range_is_none(self, w):
        # weight w = |x_perp|^2 outside rng B: feasible for lambda <= floor / w
        # under a fixed floor, so a fixed floor would find a tiny lambda here
        x = np.array([np.sqrt(1.0 - w), np.sqrt(w)])
        assert bisection_max_lambda(x, np.diag([1.0, 0.0])) is None

class TestSuites:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_all_suites_pass(self, name):
        report = run_suite(name, dims=[2, 3], trials=5, seed=123)
        assert report.passed, report.failures

    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            run_suite("nosuch", dims=[2], trials=1)

    def test_dimension_floor(self):
        with pytest.raises(ValidationError):
            run_suite("thm1", dims=[1], trials=1)

    def test_failure_digest_is_the_head_of_the_trial_stream(self, monkeypatch):
        import obsorder.harness as h

        def odd_trials_fail(dim, rng, tol):
            return ["odd", "twice"] if rng.integers(0, 2) else []

        monkeypatch.setitem(h._SUITES, "odd", odd_trials_fail)
        report = run_suite("odd", dims=[2, 3], trials=12, seed=4)
        assert report.failures and len(report.failures) < 2 * 2 * 12
        for f in report.failures:
            rng = np.random.default_rng([f["seed"], f["dim"], f["trial"]])
            assert f["digest"] == hashlib.sha256(rng.bytes(32)).hexdigest()[:16]

    def test_passing_trial_builds_no_digest(self, monkeypatch):
        import obsorder.harness as h

        streams = []
        real = h._trial_rng
        monkeypatch.setattr(h, "_trial_rng", lambda *key: streams.append(key) or real(*key))
        monkeypatch.setitem(h._SUITES, "pass", lambda dim, rng, tol: [])
        assert run_suite("pass", dims=[2, 3], trials=5, seed=1).passed
        assert len(streams) == 10

    def test_report_determinism(self):
        a = run_suite("lemma-rng", dims=[2, 3], trials=5, seed=7).to_dict()
        b = run_suite("lemma-rng", dims=[2, 3], trials=5, seed=7).to_dict()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b

    def test_thm1_undecidable_rank_is_not_a_failure(self):
        # cond(T) near the cap puts an eigenvalue of T A T* below the rank
        # cut here, so rank_numeric rightly reads 11, not 12
        report = run_suite("thm1", dims=[12], trials=1, seed=1625922702)
        assert report.passed, report.failures

    @pytest.mark.parametrize("factor, bound", [(1e-9, "lower"), (1e9, "upper")])
    def test_thm1_flags_a_spectrum_outside_ostrowski_bounds(self, monkeypatch, factor, bound):
        # cond(T)^2 <= 1e8, so scaling the image by 1e-9 or 1e9 breaks one bound
        import obsorder.harness as h

        real = h.apply
        monkeypatch.setattr(h, "apply", lambda phi, a: real(phi, factor * h.herm_array(a)))
        problems = replay_trial("thm1", dim=3, trial=0, seed=5)
        assert any(f"Ostrowski's {bound} bound" in p for p in problems), problems

    def test_report_shape(self):
        report = run_suite("thm1", dims=[2], trials=3, seed=0)
        d = report.to_dict()
        assert d["suite"] == "thm1"
        assert d["dims"] == [2]
        assert d["trials"] == 3
        assert d["failures"] == []

    def test_replay_matches_run(self):
        # a passing trial replays to an empty problem list
        assert replay_trial("lemma-rank", dim=3, trial=2, seed=123) == []
        with pytest.raises(ValidationError):
            replay_trial("nosuch", dim=2, trial=0, seed=0)

    def test_injected_failure_is_replayable(self, monkeypatch):
        import obsorder.harness as h

        def flaky(dim, rng, tol):
            return ["boom"] if rng.integers(0, 2) else []

        monkeypatch.setitem(h._SUITES, "flaky", flaky)
        report = run_suite("flaky", dims=[2], trials=20, seed=99)
        assert report.failures
        for f in report.failures:
            assert replay_trial("flaky", f["dim"], f["trial"], f["seed"]) == ["boom"]
