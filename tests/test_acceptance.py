"""Acceptance gate: eight end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion. The studies behind criteria 3-5 and 7 are shared
module-scoped fixtures, so the whole gate stays inside the runtime budget.
"""

import numpy as np
import pytest

from robust_recourse.adversary import Neighborhood, best_response, corner_oracle
from robust_recourse.data import MU0, MU1, SIGMA, SyntheticSpec, generate_synthetic
from robust_recourse.experiments import ExperimentConfig, oracle_check, run_smoothness_study, \
    run_tradeoff_study, run_validity_study
from robust_recourse.glm import (
    ModelParams,
    RecourseQuery,
    eval_total_cost,
    score,
    sign,
    weighted_l1,
)
from robust_recourse.solver import consistent_recourse, optimal_robust_recourse
from robust_recourse.tradeoff import TradeoffQuery, blended_recourse, consistency, robustness


@pytest.fixture(scope="module")
def tradeoff_result(tmp_path_factory):
    cfg = ExperimentConfig(
        n_points=400, k_folds=5, out_dir=str(tmp_path_factory.mktemp("pareto"))
    )
    return run_tradeoff_study(cfg)


@pytest.fixture(scope="module")
def validity_result(tmp_path_factory):
    cfg = ExperimentConfig(
        n_points=400, k_folds=5, out_dir=str(tmp_path_factory.mktemp("validity"))
    )
    return run_validity_study(cfg)


@pytest.fixture(scope="module")
def smoothness_result(tmp_path_factory):
    cfg = ExperimentConfig(
        n_points=200, k_folds=5, out_dir=str(tmp_path_factory.mktemp("smoothness"))
    )
    return run_smoothness_study(cfg)


def test_criterion_1_solver_matches_oracle():
    report = oracle_check(n_instances=200, seed=0, upper_tol=1e-2, lower_tol=1e-9)
    print(
        f"oracle check: {report.n_pass}/{report.n_instances} pass, "
        f"max_over={report.max_over:.3e}, max_under={report.max_under:.3e}, "
        f"{report.elapsed_s:.1f}s"
    )
    assert report.all_pass
    assert report.max_over <= 1e-2
    assert report.max_under <= 1e-9
    assert report.elapsed_s < 120.0


def test_criterion_2_adversary_exact():
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        base = ModelParams(
            weights=rng.uniform(-3.0, 3.0, d), intercept=float(rng.uniform(-1.0, 1.0))
        )
        nbhd = Neighborhood(base, float(rng.uniform(0.0, 1.0)))
        x = rng.uniform(-3.0, 3.0, d)
        gap = abs(score(best_response(nbhd, x), x) - score(corner_oracle(nbhd, x), x))
        worst_gap = max(worst_gap, gap)
    print(f"adversary closed form vs corner enumeration: worst gap {worst_gap:.3e}")
    assert worst_gap <= 1e-12


def test_criterion_3_tradeoff_endpoints(tradeoff_result):
    blend = [r for r in tradeoff_result.rows if r["method"] == "blend"]
    rob_at_1 = max(abs(r["robustness"]) for r in blend if r["beta"] == 1.0)
    con_at_0 = max(abs(r["consistency"]) for r in blend if r["beta"] == 0.0)
    print(f"beta=1 max |robustness| = {rob_at_1:.3e}, beta=0 max |consistency| = {con_at_0:.3e}")
    assert rob_at_1 <= 1e-3
    assert con_at_0 <= 1e-3


def test_criterion_4_roar_gap(tradeoff_result):
    gap = tradeoff_result.extras["roar_mean_robustness"]
    print(f"mean ROAR robustness over the exact solver: {gap:.6f} (reported, bound 0.1)")
    assert -1e-9 <= gap <= 0.1


def test_criterion_5_worst_case_validity(validity_result):
    rows = validity_result.rows
    alg = {(r["alpha"], r["lam"]): r["validity"] for r in rows if r["method"] == "alg"}
    roar = {(r["alpha"], r["lam"]): r["validity"] for r in rows if r["method"] == "roar"}
    at_low_lam = {k: v for k, v in alg.items() if k[1] == 0.05}
    assert at_low_lam, "validity grid must include lambda = 0.05"
    print(
        f"alg validity at lam=0.05: min {min(at_low_lam.values()):.3f} "
        f"over {len(at_low_lam)} alphas; "
        f"min alg-roar gap {min(alg[k] - roar[k] for k in alg):.3f}"
    )
    for key, val in at_low_lam.items():
        assert val >= 0.9, f"validity {val} below 0.9 at alpha={key[0]}"
    for key in alg:
        assert alg[key] >= roar[key] - 0.02


def test_criterion_6_synthetic_statistics():
    spec = SyntheticSpec(n_points=100_000, seed=0)
    ds = generate_synthetic(spec)
    for label, mu in ((0, MU0), (1, MU1)):
        block = ds.features[ds.labels == label]
        mean_err = np.abs(block.mean(axis=0) - np.asarray(mu)).max()
        var_err = np.abs(block.var(axis=0) - SIGMA).max()
        print(f"class {label}: mean error {mean_err:.4f}, variance error {var_err:.4f}")
        assert mean_err <= 0.02
        assert var_err <= 0.02


def test_criterion_7_smoothness_zero_point(smoothness_result):
    by_key = {(r["prediction"], r["beta"]): r["smoothness"] for r in smoothness_result.rows}
    zero_point = by_key[("correct", 0.0)]
    full_trust = [by_key[(p, 1.0)] for p in smoothness_result.extras["predictions"]]
    spread = max(full_trust) - min(full_trust)
    print(f"smoothness at (correct, beta=0): {zero_point:.3e}; beta=1 curve spread: {spread:.3e}")
    assert zero_point <= 1e-6
    assert spread <= 1e-6


# --------------------------------------------------------------- criterion 8


def _replay_trace(query, neighborhood, plan):
    """Check every trace move against the running worst-case model."""
    base = neighborhood.base
    alpha = neighborhood.alpha
    x = query.x0.copy()
    adv = base.weights - alpha * sign(x)
    active = ~query.immutable_mask
    for i in range(query.dim):
        if active[i] and x[i] == 0.0:
            if abs(base.weights[i]) > alpha:
                adv[i] = base.weights[i] - alpha * sign(base.weights[i])
            else:
                active[i] = False
    slopes = []
    for j, delta, updated in plan.trace:
        assert active[j]
        assert sign(delta) == sign(adv[j])  # direction lemma
        slopes.append(abs(adv[j]))
        if updated:
            assert x[j] + delta == pytest.approx(0.0, abs=1e-12)
            x[j] = 0.0
            flipped = base.weights[j] + alpha * sign(query.x0[j])
            if flipped != 0.0 and sign(flipped) == sign(delta):
                adv[j] = flipped
            else:
                active[j] = False
        else:
            x[j] += delta
    np.testing.assert_allclose(x, plan.x_prime, atol=1e-12)
    for a, b in zip(slopes, slopes[1:]):
        assert b <= a + 1e-12  # selected weight magnitudes never increase


def test_criterion_8_property_suites(tmp_path):
    rng = np.random.default_rng(8)
    checked_metrics = 0
    for case in range(10_000):
        d = int(rng.integers(1, 6))
        mask = rng.random(d) < 0.15
        if mask.all():
            mask[0] = False
        q = RecourseQuery(
            x0=np.round(rng.uniform(-3, 3, d), 3),
            lam=float(rng.uniform(0.02, 1.5)),
            immutable_mask=mask,
        )
        nbhd = Neighborhood(
            ModelParams(weights=rng.uniform(-2, 2, d), intercept=float(rng.uniform(-1, 1))),
            float(rng.uniform(0.0, 1.0)),
            perturb_intercept=bool(rng.integers(0, 2)),
        )
        plan = optimal_robust_recourse(q, nbhd)
        assert len(plan.trace) <= 2 * d
        _replay_trace(q, nbhd, plan)
        assert plan.l1_cost == pytest.approx(weighted_l1(q, plan.x_prime), abs=1e-12)
        assert plan.worst_case_total == pytest.approx(
            eval_total_cost(q, plan.x_prime, best_response(nbhd, plan.x_prime)), abs=1e-12
        )

        if case % 25 == 0:
            pred = ModelParams(
                weights=nbhd.base.weights + rng.uniform(-nbhd.alpha, nbhd.alpha, d),
                intercept=nbhd.base.intercept
                + (float(rng.uniform(-nbhd.alpha, nbhd.alpha)) if nbhd.perturb_intercept else 0.0),
            )
            robust_base = plan
            consistent_base = consistent_recourse(q, pred)
            blended = blended_recourse(
                TradeoffQuery(q, nbhd, pred, float(rng.uniform(0.0, 1.0)))
            )
            for x_cand in (plan.x_prime, consistent_base.x_prime, blended.x_prime):
                assert robustness(q, nbhd, x_cand, robust_base) >= -1e-9
                assert consistency(q, pred, x_cand, consistent_base) >= -1e-9
            checked_metrics += 1
    print(f"10000 fuzzed traces replayed; metrics checked on {checked_metrics} sub-cases")

    small = dict(
        n_points=120,
        k_folds=2,
        lambda_grid=(0.05, 0.1),
        beta_grid=(0.0, 0.5, 1.0),
        validity_alphas=(0.05, 0.1),
        validity_lambdas=(0.05, 0.1),
    )
    digests = []
    for run in ("a", "b"):
        outputs = []
        for runner, name in (
            (run_tradeoff_study, "pareto"),
            (run_smoothness_study, "smoothness"),
            (run_validity_study, "validity"),
        ):
            cfg = ExperimentConfig(out_dir=str(tmp_path / f"{name}_{run}"), **small)
            res = runner(cfg)
            with open(res.csv_path, "rb") as fh:
                outputs.append(fh.read())
        digests.append(outputs)
    assert digests[0] == digests[1], "study CSVs differ between identical reruns"
    print("three study CSVs byte-identical across reruns")
