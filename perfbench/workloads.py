"""The four benchmark workloads: inputs made from a seed, one pass, output checks.

A workload is built once per worker process (that is set-up) and then run
pass after pass. Every call into the package goes through an attribute of
the ``robust_recourse`` package at call time, so the tracer's rebinding of
the package namespace takes effect without the workloads knowing about it.

Each pass returns a ``PassResult``: ops attempted and failed, per-op
latencies where ops are separate calls, and a fingerprint of the outputs.
An exception inside an op counts that op as failed; it never aborts a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import robust_recourse as rr

TOL = 1e-9  # objective recomputation and "no worse than x0" tolerance
ENDPOINT_TOL = 1e-3  # |robustness| at beta=1 and |consistency| at beta=0

PARETO_POINTS = 60
VALIDITY_POINTS = 40
VALIDITY_FOLDS = 2
VALIDITY_ROAR_ITERS = 1000  # half the default, so at least two passes fit in a run
CERTIFY_PER_DIM = 10
QUERY_MIX = (  # (kind, dimension, requests per pass)
    ("robust", 2, 250),
    ("robust", 20, 250),
    ("robust", 200, 200),
    ("blend", 2, 120),
    ("blend", 20, 100),
    ("blackbox", 20, 60),
    ("roar", 2, 20),
)
MLP_HIDDEN = 16


@dataclass
class PassResult:
    attempted: int
    failed: int
    latencies: list  # seconds per op, empty when ops are not separate calls
    fingerprint: dict  # output name -> sha256
    output_bytes: int = 0
    failures: list = field(default_factory=list)  # one short reason per failure


def sub_seed(seed: int, tag: str, index: int) -> int:
    """A 31-bit seed derived from the workload seed, a tag and an index."""
    tag_code = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")
    return int(np.random.SeedSequence([seed, tag_code, index]).generate_state(1)[0] >> 1)


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# studies


def balanced_synthetic_seed(seed: int, tag: str, n_points: int) -> int:
    """First derived seed whose synthetic draw has exactly half of each label.

    The study's instance count is the number of test rows the base model
    labels undesirable, which on the well-separated synthetic classes is the
    number of 0 labels. Fixing it makes every seed do the same work.
    """
    for i in range(10_000):
        s = sub_seed(seed, tag, i)
        labels = rr.generate_synthetic(rr.SyntheticSpec(n_points=n_points, seed=s)).labels
        if int((labels == 0).sum()) * 2 == n_points:
            return s
    raise RuntimeError("no class-balanced synthetic draw found")  # pragma: no cover


class StudyWorkload:
    """One study runner on a fixed synthetic config; one pass is one study run.

    ``check(rows, cfg)`` returns (attempted, failed, reasons) for a pass's
    CSV rows; ``expected_ops`` is what a pass that raised counts as failed.
    """

    def __init__(self, runner: str, cfg: rr.ExperimentConfig, check, expected_ops: int):
        self.runner = runner
        self.cfg = cfg
        self.check = check
        self.expected_ops = expected_ops

    def run_pass(self, on_op=None) -> PassResult:
        if on_op is not None:
            on_op(0)
        try:
            result = getattr(rr, self.runner)(self.cfg)
        except Exception as exc:  # a failed pass is counted, never raised
            ops = self.expected_ops
            return PassResult(ops, ops, [], {}, failures=[f"{type(exc).__name__}: {exc}"])
        out_dir = os.path.dirname(result.csv_path)
        fingerprint, size = {}, 0
        for fname in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, fname)
            fingerprint[fname] = _sha256_file(path)
            size += os.path.getsize(path)
        attempted, failed, failures = self.check(result.rows, self.cfg)
        return PassResult(attempted, failed, [], fingerprint, size, failures)

    def warm_up(self, out_dir: str) -> None:
        """The same study on a small grid, so first-call costs stay out of the passes."""
        small = dataclasses.replace(
            self.cfg,
            n_points=20,
            k_folds=2,
            beta_grid=(0.0, 0.5, 1.0),
            validity_alphas=self.cfg.validity_alphas[:1],
            validity_lambdas=self.cfg.validity_lambdas[:1],
            out_dir=out_dir,
        )
        try:
            getattr(rr, self.runner)(small)
        except Exception:  # the timed passes count failures; set-up only warms
            pass


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_pareto_rows(rows: list, cfg: rr.ExperimentConfig) -> tuple:
    """Invariants any correct solver meets; a bad row fails every instance.

    Rows average over all instances, so one bad row means the pass's
    outputs are wrong for the instances behind it, which is all of them.
    Returns (attempted, failed, reasons).
    """
    ops = int(rows[0]["n_instances"]) if rows else 0
    reasons = []
    n_blend = sum(1 for r in rows if r["method"] == "blend")
    if {r["method"] for r in rows} != {"blend", "roar"}:
        reasons.append("methods are not blend and roar")
    if n_blend % len(cfg.beta_grid):
        reasons.append(f"{n_blend} blend rows for {len(cfg.beta_grid)} betas")
    for r in rows:
        tag = f"{r['method']}/{r['prediction']}/beta={r['beta']}"
        if r["n_instances"] != ops or ops <= 0:
            reasons.append(f"{tag}: n_instances {r['n_instances']} != {ops}")
        if not _finite(r["robustness"], r["consistency"], r["l1_cost"]):
            reasons.append(f"{tag}: non-finite metric")
            continue
        if min(r["robustness"], r["consistency"], r["l1_cost"]) < -TOL:
            reasons.append(f"{tag}: negative metric")
        if r["method"] == "blend" and r["beta"] == 1.0 and abs(r["robustness"]) > ENDPOINT_TOL:
            reasons.append(f"{tag}: robustness {r['robustness']} at beta=1")
        if r["method"] == "blend" and r["beta"] == 0.0 and abs(r["consistency"]) > ENDPOINT_TOL:
            reasons.append(f"{tag}: consistency {r['consistency']} at beta=0")
    ops = max(ops, 1)
    return ops, ops if reasons else 0, reasons


def check_validity_rows(rows: list, cfg: rr.ExperimentConfig) -> tuple:
    """Per (alpha, lam) cell invariants; a bad row fails that cell's folds.

    Returns (attempted, failed, reasons) counted in fold x alpha x lam cells.
    """
    cells = {(float(a), float(l)) for a in cfg.validity_alphas for l in cfg.validity_lambdas}
    bad, reasons = set(), []
    seen = {}
    for r in rows:
        key = (r["alpha"], r["lam"])
        seen[(r["method"], key)] = r
        tag = f"{r['method']}/alpha={r['alpha']}/lam={r['lam']}"
        if not _finite(r["validity"], r["mean_cost"]):
            bad.add(key)
            reasons.append(f"{tag}: non-finite metric")
        elif not 0.0 <= r["validity"] <= 1.0 or r["mean_cost"] < -TOL:
            bad.add(key)
            reasons.append(f"{tag}: validity {r['validity']} mean_cost {r['mean_cost']}")
    for method in ("alg", "roar"):
        for key in cells:
            if (method, key) not in seen:
                bad.add(key)
                reasons.append(f"{method}/{key}: row missing")
        if not any(r["pareto"] for r in rows if r["method"] == method):
            bad |= cells
            reasons.append(f"{method}: no pareto row")
    folds = cfg.k_folds
    return folds * len(cells), folds * len(bad & cells), reasons


def pareto_workload(seed: int, out_dir: str, n_points: int = PARETO_POINTS) -> StudyWorkload:
    cfg = rr.ExperimentConfig(
        n_points=n_points,
        seed=balanced_synthetic_seed(seed, "pareto", n_points),
        out_dir=out_dir,
    )
    return StudyWorkload("run_tradeoff_study", cfg, check_pareto_rows, n_points // 2)


def validity_workload(
    seed: int, out_dir: str, n_points: int = VALIDITY_POINTS, k_folds: int = VALIDITY_FOLDS
) -> StudyWorkload:
    cfg = rr.ExperimentConfig(
        n_points=n_points,
        k_folds=k_folds,
        seed=balanced_synthetic_seed(seed, "validity", n_points),
        out_dir=out_dir,
        roar=rr.RoarConfig(max_iters=VALIDITY_ROAR_ITERS),
    )
    cells = k_folds * len(cfg.validity_alphas) * len(cfg.validity_lambdas)
    return StudyWorkload("run_validity_study", cfg, check_validity_rows, cells)


# ---------------------------------------------------------------------------
# certify


def oracle_instance_dim(instance_seed: int) -> int:
    """Dimension of the instance ``oracle_check(1, instance_seed)`` certifies.

    Mirrors oracle_check's draw and its movement-bound rejection so that a
    pass can hold equally many 1-, 2- and 3-D instances; 3-D instances take
    about 25 times longer than 2-D ones, so an unstratified mix would make
    the pass time depend on the seed. If the program's draw changes, the
    mix is only roughly stratified and the benchmark still runs.
    """
    rng = np.random.default_rng(instance_seed)
    while True:
        d = int(rng.integers(1, 4))
        alpha = float(rng.choice((0.1, 0.5)))
        lam = float(rng.choice((0.05, 0.3, 1.0)))
        weights = rng.uniform(-3.0, 3.0, d)
        intercept = float(rng.uniform(-1.0, 1.0))
        x0 = rng.uniform(-3.0, 3.0, d)
        s0 = float(x0 @ weights - alpha * np.abs(x0).sum() + intercept - alpha)
        bound = 0.0
        for j in range(d):
            b = abs(x0[j])
            for a in (abs(weights[j] - alpha), abs(weights[j] + alpha)):
                if a > lam:
                    p = 1.0 - lam / a
                    b = max(b, abs(x0[j]) + max(0.0, math.log(p / (1.0 - p)) - s0) / a)
            bound = max(bound, b)
        if bound <= 18.0:
            return d


class CertifyWorkload:
    """``oracle_check`` on one instance per call; a pass certifies every instance."""

    def __init__(self, seed: int, per_dim: int = CERTIFY_PER_DIM):
        picked = {1: [], 2: [], 3: []}
        i = 0
        while min(len(v) for v in picked.values()) < per_dim:
            s = sub_seed(seed, "certify", i)
            i += 1
            bucket = picked[oracle_instance_dim(s)]
            if len(bucket) < per_dim:
                bucket.append(s)
        # interleave dimensions so a pass's time does not depend on order
        self.instance_seeds = [s for trio in zip(*picked.values()) for s in trio]

    def warm_up(self, out_dir: str) -> None:
        try:
            rr.oracle_check(1, self.instance_seeds[1])  # a 2-D instance
        except Exception:  # the timed passes count failures; set-up only warms
            pass

    def run_pass(self, on_op=None) -> PassResult:
        latencies, failures = [], []
        failed = 0
        digest = hashlib.sha256()
        for i, s in enumerate(self.instance_seeds):
            if on_op is not None:
                on_op(i)
            t0 = time.perf_counter()
            try:
                report = rr.oracle_check(1, s)
            except Exception as exc:
                latencies.append(time.perf_counter() - t0)
                failed += 1
                failures.append(f"seed {s}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            n_fail = report.n_instances - report.n_pass
            if n_fail:
                failed += n_fail
                failures.append(f"seed {s}: over {report.max_over} under {report.max_under}")
            digest.update(repr((s, report.n_pass, report.max_over, report.max_under)).encode())
        n = len(self.instance_seeds)
        return PassResult(n, failed, latencies, {"oracle_reports": digest.hexdigest()},
                          failures=failures)


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class Request:
    kind: str  # robust | blend | blackbox | roar
    query: rr.RecourseQuery
    neighborhood: rr.Neighborhood  # blackbox: only alpha and intercept mode are used
    prediction: rr.ModelParams | None = None
    beta: float | None = None
    surrogate_seed: int | None = None


def make_mlp(seed: int, d: int = 20, hidden: int = MLP_HIDDEN) -> rr.MlpWeights:
    rng = np.random.default_rng(sub_seed(seed, "mlp", 0))
    w1 = rng.normal(0.0, 1.0 / math.sqrt(d), (hidden, d))
    b1 = rng.normal(0.0, 0.1, hidden)
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), (1, hidden))
    return rr.MlpWeights(((w1, b1), (w2, np.array([-0.5]))))


def _random_problem(rng, d: int, loss=None) -> tuple:
    """A query and model ball with random costs, masks and intercept mode."""
    scale = 1.0 / math.sqrt(d)
    x0 = rng.uniform(-3.0, 3.0, d)
    mask = rng.random(d) < 0.2
    mask[int(rng.integers(d))] = False  # at least one mutable feature
    if loss is None:
        loss = rr.LossKind.SQUARED if rng.random() < 0.5 else rr.LossKind.BCE
    query = rr.RecourseQuery(
        x0=x0,
        lam=float(rng.choice((0.05, 0.1, 0.3, 1.0))),
        loss=loss,
        cost=rr.CostSpec(rng.uniform(0.5, 2.0, d)),
        immutable_mask=mask,
    )
    base = rr.ModelParams(rng.uniform(-3.0, 3.0, d) * scale, float(rng.uniform(-1.0, 1.0)))
    nbhd = rr.Neighborhood(
        base, float(rng.choice((0.1, 0.5))) * scale, perturb_intercept=bool(rng.random() < 0.5)
    )
    return query, nbhd


def make_requests(seed: int, mix=QUERY_MIX) -> list:
    """The request list for one pass, shuffled; the same seed gives the same list."""
    rng = np.random.default_rng(sub_seed(seed, "queries", 0))
    requests = []
    for kind, d, count in mix:
        for _ in range(count):
            if kind == "roar":
                query, nbhd = _random_problem(rng, d, rr.LossKind.BCE)
            else:
                query, nbhd = _random_problem(rng, d)
            if kind == "robust" or kind == "roar":
                requests.append(Request(kind, query, nbhd))
            elif kind == "blend":
                a = nbhd.alpha
                shift = a * float(rng.uniform(-1.0, 1.0)) if nbhd.perturb_intercept else 0.0
                pred = rr.ModelParams(
                    nbhd.base.weights + a * rng.uniform(-1.0, 1.0, d), nbhd.base.intercept + shift
                )
                requests.append(
                    Request(kind, query, nbhd, pred, float(rng.uniform(0.1, 0.9)))
                )
            else:
                query = rr.RecourseQuery(
                    x0=rng.normal(0.0, 1.0, d), lam=query.lam, loss=query.loss,
                    cost=query.cost, immutable_mask=query.immutable_mask,
                )
                requests.append(
                    Request(kind, query, nbhd, surrogate_seed=int(rng.integers(2**31)))
                )
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def _robust_objective(query, nbhd, x) -> float:
    return rr.eval_total_cost(query, x, rr.best_response(nbhd, x))


def check_plan(req: Request, nbhd: rr.Neighborhood, plan) -> str | None:
    """Reason the plan is wrong, or None. Independent of the solver's own bookkeeping.

    The plan's reported worst-case total must match a recomputation with
    ``eval_total_cost`` and ``best_response``; immutable features must not
    move; and the plan must be no worse than staying at x0 under the
    objective it was asked to minimise.
    """
    q = req.query
    x = np.asarray(plan.x_prime, dtype=float)
    if x.shape != q.x0.shape or not np.all(np.isfinite(x)):
        return "x' has the wrong shape or is not finite"
    if np.any(x[q.immutable_mask] != q.x0[q.immutable_mask]):
        return "an immutable feature moved"
    worst = _robust_objective(q, nbhd, x)
    if not abs(worst - plan.worst_case_total) <= TOL:
        return f"worst_case_total {plan.worst_case_total!r} != recomputed {worst!r}"

    def objective(z):
        worst_case = _robust_objective(q, nbhd, z)
        if req.kind != "blend":
            return worst_case
        return req.beta * worst_case + (1.0 - req.beta) * rr.eval_total_cost(q, z, req.prediction)

    at_plan, at_x0 = objective(x), objective(q.x0)
    if at_plan > at_x0 + TOL:
        return f"objective {at_plan!r} worse than staying at x0 ({at_x0!r})"
    return None


class QueryWorkload:
    """Closed loop, one client: each request is sent when the previous one returns."""

    def __init__(self, seed: int, mix=QUERY_MIX):
        self.requests = make_requests(seed, mix)
        self.scorer = rr.MlpScorer(make_mlp(seed))

    def warm_up(self, out_dir: str) -> None:
        """Serve the first request of each kind once."""
        firsts = {}
        for req in self.requests:
            firsts.setdefault(req.kind, req)
        for req in firsts.values():
            try:
                self.serve(req)
            except Exception:  # the timed passes count failures; set-up only warms
                pass

    def serve(self, req: Request):
        """One request; returns (the ball the plan answers to, the plan)."""
        if req.kind == "robust":
            return req.neighborhood, rr.optimal_robust_recourse(req.query, req.neighborhood)
        if req.kind == "blend":
            tq = rr.TradeoffQuery(req.query, req.neighborhood, req.prediction, req.beta)
            return req.neighborhood, rr.blended_recourse(tq)
        if req.kind == "roar":
            return req.neighborhood, rr.roar_recourse(req.query, req.neighborhood)
        local = rr.fit_local_linear(
            self.scorer, req.query.x0, rr.SurrogateConfig(seed=req.surrogate_seed)
        )
        nbhd = rr.Neighborhood(local, req.neighborhood.alpha, req.neighborhood.perturb_intercept)
        return nbhd, rr.optimal_robust_recourse(req.query, nbhd)

    def run_pass(self, on_op=None) -> PassResult:
        latencies, failures, outputs = [], [], []
        failed = 0
        for i, req in enumerate(self.requests):
            if on_op is not None:
                on_op(i)
            t0 = time.perf_counter()
            try:
                nbhd, plan = self.serve(req)
            except Exception as exc:
                latencies.append(time.perf_counter() - t0)
                failed += 1
                failures.append(f"request {i} ({req.kind}): {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            reason = check_plan(req, nbhd, plan)
            if reason is not None:
                failed += 1
                failures.append(f"request {i} ({req.kind}, {req.query.loss.value}): {reason}")
            outputs.append(plan.x_prime)
            outputs.append([plan.worst_case_total])
        fingerprint = {"plans": _digest(*outputs)}
        return PassResult(len(self.requests), failed, latencies, fingerprint,
                          failures=failures)


def build(name: str, seed: int, out_dir: str):
    """The named workload with its benchmark sizes."""
    if name == "pareto":
        return pareto_workload(seed, out_dir)
    if name == "validity":
        return validity_workload(seed, out_dir)
    if name == "certify":
        return CertifyWorkload(seed)
    if name == "queries":
        return QueryWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
