"""Tests of the benchmark itself: inputs, op counts, checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import robust_recourse as rr  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL_MIX = (
    ("robust", 2, 12),
    ("robust", 20, 4),
    ("blend", 2, 4),
    ("blend", 20, 2),
    ("blackbox", 20, 2),
    ("roar", 2, 1),
)


def _request_key(req):
    return (
        req.kind,
        req.query.x0.tobytes(),
        req.query.lam,
        req.query.loss,
        req.query.cost.weights.tobytes(),
        req.query.immutable_mask.tobytes(),
        req.neighborhood.base.weights.tobytes(),
        req.neighborhood.alpha,
        req.neighborhood.perturb_intercept,
        req.beta,
        req.surrogate_seed,
    )


def test_query_generation_is_deterministic_per_seed():
    first = [_request_key(r) for r in workloads.make_requests(3)]
    again = [_request_key(r) for r in workloads.make_requests(3)]
    other = [_request_key(r) for r in workloads.make_requests(4)]
    assert first == again
    assert first != other
    counts = {}
    for key in first:
        counts[key[0]] = counts.get(key[0], 0) + 1
    expected = {}
    for kind, _, n in workloads.QUERY_MIX:
        expected[kind] = expected.get(kind, 0) + n
    assert counts == expected
    assert np.array_equal(
        workloads.make_mlp(3).layers[0][0], workloads.make_mlp(3).layers[0][0]
    )


def test_queries_op_count_is_one_per_request():
    wl = workloads.QueryWorkload(5, SMALL_MIX)
    result = wl.run_pass()
    assert result.attempted == sum(n for _, _, n in SMALL_MIX)
    assert len(result.latencies) == result.attempted


def test_certify_op_count_and_dimension_mix():
    wl = workloads.CertifyWorkload(2, per_dim=1)
    assert sorted(workloads.oracle_instance_dim(s) for s in wl.instance_seeds) == [1, 2, 3]
    result = wl.run_pass()
    assert result.attempted == 3
    assert result.failed == 0


def test_pareto_op_count_is_the_undesirable_test_rows(tmp_path):
    wl = workloads.pareto_workload(1, str(tmp_path), n_points=20)
    cfg = wl.cfg
    ds = rr.generate_synthetic(rr.SyntheticSpec(n_points=cfg.n_points, seed=cfg.seed))
    plan = rr.kfold(ds.n, cfg.k_folds, cfg.seed)
    undesirable = 0
    for fold in range(plan.k):
        tr, te = plan.train_indices(fold), plan.test_indices(fold)
        scorer = rr.GlmScorer(rr.train_logistic(ds.features[tr], ds.labels[tr]))
        undesirable += sum(rr.predict_label(scorer, x) == 0 for x in ds.features[te])
    result = wl.run_pass()
    assert result.attempted == undesirable == cfg.n_points // 2
    assert result.failed == 0
    assert sorted(result.fingerprint) == [
        "synthetic_glm.csv", "synthetic_glm.schema.json", "synthetic_glm.svg"
    ]


def test_validity_op_count_is_fold_by_alpha_by_lam(tmp_path):
    wl = workloads.validity_workload(1, str(tmp_path), n_points=20, k_folds=2)
    wl.cfg = dataclasses.replace(
        wl.cfg, validity_alphas=(0.02, 0.1), validity_lambdas=(0.05,),
        roar=rr.RoarConfig(max_iters=20),
    )
    result = wl.run_pass()
    assert result.attempted == 2 * 2 * 1
    assert result.failed == 0


def test_validity_check_fails_the_cells_of_a_bad_row():
    cfg = rr.ExperimentConfig(k_folds=2, validity_alphas=(0.02, 0.04), validity_lambdas=(0.05,))
    rows = [
        {"method": m, "alpha": a, "lam": 0.05, "validity": 0.5, "mean_cost": 1.0, "pareto": True}
        for m in ("alg", "roar")
        for a in (0.02, 0.04)
    ]
    assert workloads.check_validity_rows(rows, cfg)[:2] == (4, 0)
    rows[1]["validity"] = 1.5
    assert workloads.check_validity_rows(rows, cfg)[:2] == (4, 2)


def test_pareto_check_flags_a_nonzero_endpoint():
    cfg = rr.ExperimentConfig(beta_grid=(0.0, 1.0))
    rows = [
        {"method": "blend", "prediction": "base", "beta": b, "robustness": r,
         "consistency": c, "l1_cost": 1.0, "n_instances": 7}
        for b, r, c in ((0.0, 0.2, 0.0), (1.0, 0.0, 0.3))
    ]
    rows.append(dict(rows[0], method="roar", beta=1.0))
    assert workloads.check_pareto_rows(rows, cfg)[:2] == (7, 0)
    rows[1]["robustness"] = 0.01
    assert workloads.check_pareto_rows(rows, cfg)[:2] == (7, 7)


def _worked_case(loss):
    query = rr.RecourseQuery(
        x0=np.array([1.834]), lam=0.3, loss=loss, cost=rr.CostSpec(np.array([0.976]))
    )
    nbhd = rr.Neighborhood(rr.ModelParams(np.array([-0.395]), 0.107), 0.5)
    return workloads.Request("robust", query, nbhd)


def test_query_check_flags_the_squared_loss_worked_case():
    req = _worked_case(rr.LossKind.SQUARED)
    plan = rr.optimal_robust_recourse(req.query, req.neighborhood)
    assert plan.x_prime[0] == 0.0
    assert plan.worst_case_total == pytest.approx(1.537, abs=1e-3)
    reason = workloads.check_plan(req, req.neighborhood, plan)
    assert reason is not None and "worse than staying at x0" in reason


def test_query_check_accepts_the_bce_solution():
    req = _worked_case(rr.LossKind.BCE)
    plan = rr.optimal_robust_recourse(req.query, req.neighborhood)
    assert workloads.check_plan(req, req.neighborhood, plan) is None


def test_query_check_flags_a_misreported_total():
    req = _worked_case(rr.LossKind.BCE)
    plan = rr.optimal_robust_recourse(req.query, req.neighborhood)
    bad = dataclasses.replace(plan, worst_case_total=plan.worst_case_total - 1e-6)
    assert "recomputed" in workloads.check_plan(req, req.neighborhood, bad)


def test_tracing_keeps_outputs_and_restores_bindings():
    wl = workloads.QueryWorkload(6, SMALL_MIX)
    originals = {
        (m, k): v
        for m in (rr, rr.solver, rr.tradeoff, rr.experiments, rr.roar, rr.models, rr.adversary)
        for k, v in vars(m).items()
        if callable(v)
    }
    untraced = wl.run_pass()
    tracer = Tracer()
    tracer.install()
    assert rr.optimal_robust_recourse is not originals[(rr, "optimal_robust_recourse")]
    assert rr.tradeoff.optimal_robust_recourse is rr.solver.optimal_robust_recourse
    try:
        traced = wl.run_pass(tracer.set_op)
    finally:
        tracer.restore()
    for (module, key), value in originals.items():
        assert vars(module)[key] is value, f"{module.__name__}.{key} not restored"
    assert traced.fingerprint == untraced.fingerprint
    assert traced.failed == untraced.failed

    layers = tracer.layer_metrics()
    kinds = {k: sum(n for kind, _, n in SMALL_MIX if kind == k) for k, _, _ in SMALL_MIX}
    assert layers["tradeoff.blended_recourse.calls"] == kinds["blend"]
    assert layers["tradeoff.blended_recourse.interior_calls"] == kinds["blend"]
    assert layers["roar.roar_recourse.calls"] == kinds["roar"]
    assert layers["surrogate.fit_local_linear.calls"] == kinds["blackbox"]
    assert layers["models.mlp_forward.calls"] == kinds["blackbox"] * rr.SurrogateConfig().n_samples
    assert layers["adversary.best_response.calls"] > 0
    # the blend's restart check calls consistent_recourse, which calls the robust solver
    by_id = {span[0]: span for span in tracer.spans}
    nested = [
        s for s in tracer.spans
        if s[1] == "solver.optimal_robust_recourse" and s[4] >= 0
        and by_id[s[4]][1] == "solver.consistent_recourse"
    ]
    assert nested
    assert all(s[5] >= 0 for s in tracer.spans)
    for name, value in layers.items():
        if name.endswith(("self_s", "total_s")):
            assert value >= 0.0, name


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_counts_the_ops_of_one_pass_and_checks_the_others():
    from worker import run_outcome

    def result(failed, reasons):
        return workloads.PassResult(10, failed, [], {"plans": "abc"}, failures=reasons)

    passes = [(1.0, result(2, ["a", "b"])) for _ in range(4)]
    first, checks = run_outcome(passes, passes)
    assert (first.attempted, first.failed) == (10, 2)
    assert all(checks.values())
    first, checks = run_outcome(passes[:1], passes[:1])
    assert (first.attempted, first.failed) == (10, 2)
    other = passes + [(1.0, result(1, ["a"]))]
    assert not run_outcome(other, other)[1]["reruns_identical"]
    assert not run_outcome(passes, other)[1]["traced_equals_untraced"]
