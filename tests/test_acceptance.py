"""Acceptance suite: every shipped guarantee, one test per criterion.

Each criterion prints a single PASS/FAIL line (run with -s or check captured
output) and asserts its stated tolerance. Monte Carlo criteria use fixed
seeds, so the whole suite is deterministic.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import brute_force_weighted_kemeny, naive_kendall

from uws import inference, mallows
from uws import label_model as lm
from uws import metric_spaces as ms
from uws import permutations as perm
from uws import synthetic as syn
from uws.cli import main as cli_main
from uws.errors import InconsistentMomentsError


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def test_c01_embedding_identity():
    with criterion(1, "pair-sign embedding identity"):
        for rho in (2, 3, 4, 5):
            perms = perm.all_permutations(rho)
            g = perm.pair_sign_embed_many(perms)
            dots = g @ g.T
            c2 = perm.num_pairs(rho)
            for i in range(len(perms)):
                for j in range(len(perms)):
                    assert dots[i, j] == c2 - 2 * perm.kendall_tau(perms[i], perms[j])
        rng = np.random.default_rng(1001)
        c2 = perm.num_pairs(8)
        for _ in range(10_000):
            a, b = rng.permutation(8), rng.permutation(8)
            dot = int(perm.pair_sign_embed(a) @ perm.pair_sign_embed(b))
            assert dot == c2 - 2 * perm.kendall_tau(a, b)


def test_c02_mallows_closed_form_and_sampler():
    with criterion(2, "Mallows closed form and sampler"):
        for rho in (3, 4, 5):
            perms = perm.all_permutations(rho)
            e = perm.identity(rho)
            dists = np.array([perm.kendall_tau(p, e) for p in perms])
            for theta in (0.5, 1.0, 2.0, 5.0):
                w = np.exp(-theta * dists)
                brute = float((dists * w).sum() / w.sum())
                closed = mallows.expected_distance(theta, rho)
                assert abs(closed - brute) < 1e-12 * brute
        model = mallows.MallowsModel(perm.identity(6), 1.0)
        draws = mallows.sample_many(model, np.random.default_rng(1002), 50_000)
        centers = np.broadcast_to(model.center, draws.shape)
        mean = perm.kendall_tau_many(draws, centers).mean()
        target = mallows.expected_distance(1.0, 6)
        assert abs(mean - target) < 0.01 * target


def test_c03_backward_map_roundtrip():
    with criterion(3, "backward-map roundtrip"):
        for rho in (5, 10):
            for theta in np.arange(3.0, 8.0 + 1e-9, 0.5):
                mean = mallows.expected_distance(theta, rho)
                assert abs(mallows.backward_map(mean, rho) - theta) < 1e-8


def test_c04_triplet_population_exactness():
    with criterion(4, "triplet population exactness"):
        # continuous: conditional independence factorizes the cross moments
        a = np.array([0.8, 0.6, 0.5])
        for sm in (1.0, 2.0):
            e = np.outer(a, a) * sm
            mags = lm.continuous_triplets(e[0, 1], e[0, 2], e[1, 2], sm)
            assert np.abs(np.array(mags) - a * sm).max() < 1e-8
        # quadratic: moments forward-computed from the two-center model
        for p in (0.5, 0.6):
            cond = np.array([0.9, 0.8, 0.7])
            o, l = syn.two_point_population_moments(cond, p)
            got = lm.quadratic_triplets(o[0, 1], o[0, 2], o[1, 2], l[0], l[1], l[2], p)
            assert np.abs(np.array(got) - cond).max() < 1e-8
        # isotropic: additive pairwise expected distances
        acc = np.array([1.2, 0.7, 2.0])
        d = acc[:, None] + acc[None, :]
        np.fill_diagonal(d, 0.0)
        for i in range(3):
            others = [x for x in range(3) if x != i]
            got = lm.isotropic_accuracies(d, (i, others[0], others[1]))
            assert abs(got - acc[i]) < 1e-8


def _continuous_rate_error(n, seed):
    rng = np.random.default_rng(seed)
    a = np.array([0.8, 0.6, 0.5])
    sig = np.array([0.6, 0.8, 0.9])
    y = rng.standard_normal(n)
    lam = a[None, :] * y[:, None] + sig[None, :] * rng.standard_normal((n, 3))
    e = (lam.T @ lam) / n
    errs = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        e_ij = e[min(i, j), max(i, j)]
        e_ik = e[min(i, k), max(i, k)]
        e_jk = e[min(j, k), max(j, k)]
        mag, _, _ = lm.continuous_triplets(e_ij, e_ik, e_jk, 1.0)
        errs.append(abs(mag - a[i]))
    return float(np.mean(errs))


def _quadratic_pivot(o_ba, o_bc, o_ac, l_b, l_a, l_c, p):
    # inconsistent sampled discriminants resolve to the double root, exactly
    # as the learning path's median policy neutralizes them
    try:
        _, piv, _ = lm.quadratic_triplets(o_ba, o_bc, o_ac, l_b, l_a, l_c, p)
        return piv
    except InconsistentMomentsError:
        out = np.empty_like(np.asarray(l_a, dtype=float))
        for i in range(out.size):
            try:
                _, out[i], _ = lm.quadratic_triplets(
                    o_ba[i], o_bc[i], o_ac[i], l_b[i], l_a[i], l_c[i], p
                )
            except InconsistentMomentsError:
                out[i] = l_a[i]
        return out


def _hypercube_rate_error(n, seed, cond=(0.52, 0.53, 0.51), p=0.5, d=4):
    cond = np.asarray(cond)
    _, vals = syn.gen_two_point_tasks(cond, p, n, d, seed)
    pos = (vals > 0).astype(np.float64)
    l = pos.mean(axis=0)
    joint = lambda a, b: (pos[:, a] * pos[:, b]).mean(axis=0)
    errs = []
    for a in range(3):
        b, c = [x for x in range(3) if x != a]
        piv = _quadratic_pivot(joint(b, a), joint(b, c), joint(a, c), l[b], l[a], l[c], p)
        errs.append(np.abs(piv - cond[a]).mean())
    return float(np.mean(errs))


def test_c05_estimation_rate_checks():
    with criterion(5, "estimation-error rates"):
        ns = [10**3, 10**4, 10**5]
        replicates = 20
        cont_means = [
            np.mean([_continuous_rate_error(n, 2000 + r) for r in range(replicates)]) for n in ns
        ]
        cont_slope = float(np.polyfit(np.log(ns), np.log(cont_means), 1)[0])
        assert -0.65 <= cont_slope <= -0.35, f"continuous slope {cont_slope}"
        hyp_means = [
            np.mean([_hypercube_rate_error(n, 3000 + r) for r in range(replicates)]) for n in ns
        ]
        hyp_slope = float(np.polyfit(np.log(ns), np.log(hyp_means), 1)[0])
        assert -0.35 <= hyp_slope <= -0.15, f"hypercube slope {hyp_slope}"


def test_c06_theta_recovery_for_rankings():
    with criterion(6, "Mallows concentration recovery"):
        thetas = np.array([2.0, 1.0, 0.5])
        scenario = syn.RankingScenario(n=50_000, rho=6, thetas=tuple(thetas), seed=0)
        _, data = syn.gen_ranking_tasks(scenario)
        model = lm.learn_label_model(data)
        rel = np.abs(model.thetas - thetas) / thetas
        assert rel.max() < 0.10, f"relative errors {rel}"


def _ranking_pipeline(thetas, rho, n, seed):
    scenario = syn.RankingScenario(n=n, rho=rho, thetas=thetas, seed=seed)
    truth, data = syn.gen_ranking_tasks(scenario)
    model = lm.learn_label_model(data)
    out = {}
    for rule, model_arg in (("weighted", model), ("mv", None)):
        labels = inference.aggregate_dataset(data, rule=rule, model=model_arg, seed=seed)
        out[rule] = float(perm.kendall_tau_many(np.asarray(labels), truth).mean())
    return out


def test_c07_weighted_beats_unweighted_kemeny():
    with criterion(7, "weighted vs unweighted Kemeny"):
        wins = 0
        for rep in range(5):
            thetas = syn.heterogeneous_thetas(seed=100 + rep)
            res = _ranking_pipeline(thetas, rho=10, n=250, seed=200 + rep)
            wins += res["weighted"] < res["mv"]
        assert wins >= 4, f"weighted won only {wins}/5 replicates"
        # equal-accuracy control: the two rules must agree closely
        diffs = []
        for rep in range(5):
            res = _ranking_pipeline((1.0,) * 18, rho=10, n=250, seed=300 + rep)
            diffs.append(abs(res["weighted"] - res["mv"]))
        assert max(diffs) < 0.05 * perm.num_pairs(10), f"control diffs {diffs}"


def test_c08_kemeny_solver_correctness():
    with criterion(8, "Kemeny solvers vs brute force"):
        rng = np.random.default_rng(1008)
        exact_hits = 0
        ls_hits = 0
        for _ in range(100):
            labels = np.array([rng.permutation(6) for _ in range(5)])
            w = rng.uniform(0.0, 2.0, size=5)
            oracle, oracle_cost = brute_force_weighted_kemeny(labels, w, 6)
            got = inference.kemeny_exact(labels, w, 6)
            exact_hits += got.tolist() == oracle.tolist()
            ls = inference.kemeny_local_search(labels, w, 6, restarts=8, seed=17)
            ls_cost = sum(wi * naive_kendall(lab, ls) for wi, lab in zip(w, labels))
            ls_hits += ls_cost <= 1.02 * oracle_cost + 1e-9
        assert exact_hits == 100, f"exact matched {exact_hits}/100"
        assert ls_hits >= 95, f"local search within 2% on {ls_hits}/100"


def test_c09_regression_pipeline():
    with criterion(9, "regression: weighted inference beats the mean"):
        acc = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        noise = np.array([0.2, 0.4, 0.6, 0.9, 1.2])
        cov = np.outer(acc, acc) + np.diag(noise)
        scenario = syn.RegressionScenario(
            n=10_000, accuracies=tuple(acc), lf_cov=tuple(map(tuple, cov)),
            prior_var=1.0, seed=1009,
        )
        truth, data = syn.gen_regression_tasks(scenario)
        lam = data.labels[:, :, 0]
        mse_mean = float(np.mean((lam.mean(axis=1) - truth) ** 2))
        # population parameters
        pop = inference.gaussian_conditional_mean(lam, acc, cov)
        mse_pop = float(np.mean((pop - truth) ** 2))
        assert mse_pop < mse_mean, f"population {mse_pop} vs mean {mse_mean}"
        # learned parameters
        model = lm.learn_label_model(data, prior=lm.SecondMomentPrior(1.0))
        learned = np.asarray(inference.aggregate_dataset(data, rule="weighted", model=model))
        mse_learned = float(np.mean((learned - truth) ** 2))
        assert mse_learned < mse_mean, f"learned {mse_learned} vs mean {mse_mean}"


def _graph_pipeline(thetas, seed, n=400, n_nodes=30, n_edges=60):
    scenario = syn.GraphScenario(n_nodes=n_nodes, n_edges=n_edges, n=n, thetas=thetas, seed=seed)
    space, truth, data = syn.gen_graph_tasks(scenario)
    model = lm.learn_label_model(data)
    out = {}
    for rule, model_arg in (("weighted", model), ("mv", None)):
        labels = np.asarray(inference.aggregate_dataset(data, rule=rule, model=model_arg, seed=seed))
        out[rule] = float(np.mean(labels == truth))
    return out


def test_c10_generic_metric_space():
    with criterion(10, "generic metric space: weighted vs MV accuracy"):
        het = (3.0, 2.0, 1.0, 0.3, 0.1)
        res = [_graph_pipeline(het, seed=400 + s) for s in range(5)]
        acc_w = np.mean([r["weighted"] for r in res])
        acc_mv = np.mean([r["mv"] for r in res])
        assert acc_w >= acc_mv, f"weighted {acc_w} vs mv {acc_mv}"
        hom = [_graph_pipeline((1.0,) * 5, seed=500 + s) for s in range(5)]
        diff = abs(np.mean([r["weighted"] for r in hom]) - np.mean([r["mv"] for r in hom]))
        assert diff < 0.02, f"homogeneous gap {diff}"


def test_c11_mds_and_distortion_bound():
    with criterion(11, "MDS fixtures and distortion bound"):
        collinear = ms.FiniteMetricSpace(
            np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        )
        assert ms.classical_mds(collinear, dim=1).epsilon <= 1e-9
        triangle = ms.FiniteMetricSpace(np.ones((3, 3)) - np.eye(3))
        assert ms.classical_mds(triangle, dim=2).epsilon <= 1e-9
        assert ms.distortion_bound(0.0, 7.0, 1.3) == 0.0
        assert ms.distortion_bound(0.1, 5.0, 2.0) == pytest.approx(0.25)
        base = ms.distortion_bound(0.2, 3.0, 1.5)
        assert ms.distortion_bound(0.4, 3.0, 1.5) == pytest.approx(2 * base)


def _run_twice(tmp_path, name, argv_builder):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}_{tag}"
        code = cli_main(argv_builder(out))
        assert code == 0, f"{name} exited {code}"
        outs.append({p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.is_file()})
    assert outs[0] == outs[1], f"{name} outputs differ between identical runs"


def test_c12_cli_determinism(tmp_path):
    with criterion(12, "CLI byte determinism"):
        ranking = tmp_path / "ranking.json"
        ranking.write_text(json.dumps(
            {"kind": "ranking", "n": 300, "rho": 5, "thetas": [1.5, 1.0, 0.7], "seed": 12}
        ))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(
            {"kind": "graph", "n_nodes": 12, "n_edges": 20, "n": 50,
             "thetas": [2.0, 1.0, 0.5], "seed": 12}
        ))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"kind": "ranking", "seed": 12, "replicates": 2,
             "base": {"rho": 4, "thetas": [1.5, 1.0, 0.7]},
             "grid": {"n": [150, 300]}, "rules": ["mv", "weighted"]}
        ))
        _run_twice(tmp_path, "generate",
                   lambda out: ["generate", "--scenario", str(ranking), "--out", str(out)])
        _run_twice(tmp_path, "generate_graph",
                   lambda out: ["generate", "--scenario", str(graph), "--out", str(out)])

        data_dir = tmp_path / "generate_a"
        model_path = tmp_path / "model.json"

        def learn_args(out):
            out.mkdir(parents=True, exist_ok=True)
            return ["learn", "--dataset", str(data_dir), "--model", str(out / "model.json")]

        _run_twice(tmp_path, "learn", learn_args)
        cli_main(["learn", "--dataset", str(data_dir), "--model", str(model_path)])
        _run_twice(tmp_path, "infer", lambda out: [
            "infer", "--dataset", str(data_dir), "--model", str(model_path),
            "--out", str(out), "--rule", "weighted", "--seed", "5",
            "--truth", str(data_dir / "truth.csv"),
        ])
        _run_twice(tmp_path, "sweep",
                   lambda out: ["sweep", "--scenario", str(sweep), "--out", str(out)])

        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n1 3\n")

        def graph_metric_args(out):
            out.mkdir(parents=True, exist_ok=True)
            return ["graph-metric", "--edges", str(edges), "--out", str(out / "dist.csv")]

        _run_twice(tmp_path, "graph_metric", graph_metric_args)
        dist = tmp_path / "graph_metric_a" / "dist.csv"

        def mds_args(out):
            out.mkdir(parents=True, exist_ok=True)
            return ["mds", "--dist", str(dist), "--dim", "2", "--out", str(out / "emb")]

        _run_twice(tmp_path, "mds", mds_args)
