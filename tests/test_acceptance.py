"""End-to-end acceptance checks, one per headline property.

Each test prints a single pass/fail line naming the property and the
measured margin.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import decsaddle as ds
from decsaddle.oracles import SvrgState

from conftest import (
    ACC, PickBatch, estimate_delta, project, restart_stages, svrg_params,
)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_deterministic_contraction(acc_dataset, acc_graph, acc_zstar):
    g, spec = acc_graph
    z, _ = acc_zstar
    part = ds.partition(acc_dataset, ACC["m"], 1, seed=0)
    base = ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )
    # per-node moduli: each local loss carries lambda/(2m), beta/(2m)
    c0 = base.constants
    consts = ds.SaddleConstants(
        mu_x=ACC["lam"] / ACC["m"], mu_y=ACC["beta"] / ACC["m"],
        L_xx=c0.L_xx, L_yy=c0.L_yy, L_xy=c0.L_xy, L_yx=c0.L_yx,
    )
    prob = ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"], constants=consts,
    )
    assert consts.kappa_f >= 2.0
    params = ds.crdpsg_stage_params(0, consts, 0.0, spec)
    rho0 = ds.contraction_rate(params, spec)
    anchors = ds.compute_anchors(prob, z, params.s)
    comp = ds.Identity()
    Z0 = np.zeros((2, g.m, prob.d))
    Z0[0] = ACC["R_x"] / np.sqrt(prob.d)
    ens = ds.NodeEnsemble.initialize(g, Z0)
    draw = lambda: (prob.full_grads(ens.Z), g.m)
    step = ds.step_plan(ens, params, g, draw, prob, comp, np.random.default_rng(0))
    prev = ds.phi(ens, anchors, params, spec)
    worst = 0.0
    ok = True
    for _ in range(200):
        step()
        cur = ds.phi(ens, anchors, params, spec)
        if cur > rho0 * prev + 1e-10:
            ok = False
        worst = max(worst, cur / prev)
        prev = cur
    _report(
        1, "deterministic per-step contraction of the Lyapunov diagnostic",
        ok, f"(worst ratio {worst:.6f} vs rho0 {rho0:.6f})",
    )


def test_criterion_02_cdpsvrg_linear_convergence(
    acc_problem, acc_graph, acc_compressor, acc_zstar, acc_start
):
    g, spec = acc_graph
    z, _ = acc_zstar
    trace, _ = ds.run_cdpsvrg(
        acc_problem, g, acc_compressor, svrg_params(acc_problem, acc_compressor, spec),
        20_000, acc_start, z, seed=3, log_stride=10,
    )
    final = trace.rows[-1][4]
    hit = any(r[4] <= 1e-8 for r in trace.rows)
    # log-error regression after burn-in, above the floating-point floor
    pts = [(r[0], r[4]) for r in trace.rows if r[0] >= 500 and r[4] >= 1e-16]
    it = np.array([p[0] for p in pts], dtype=float)
    ld = np.log([p[1] for p in pts])
    slope, icept = np.polyfit(it, ld, 1)
    pred = slope * it + icept
    r2 = 1.0 - np.sum((ld - pred) ** 2) / np.sum((ld - ld.mean()) ** 2)
    ok = hit and final <= 1e-8 and slope < 0 and r2 >= 0.95
    _report(
        2, "variance-reduced solver converges linearly to 1e-8",
        ok, f"(final {final:.3e}, slope {slope:.3e}, R^2 {r2:.4f})",
    )


def test_criterion_03_crdpsg_progress(
    acc_problem, acc_graph, acc_compressor, acc_zstar, acc_start
):
    g, spec = acc_graph
    z, _ = acc_zstar
    initial = float(g.m * np.sum((acc_start - z) ** 2))
    stages = restart_stages(acc_problem, acc_compressor, spec, 5)
    trace, _ = ds.run_crdpsg(
        acc_problem, g, acc_compressor, stages, acc_start, z, seed=3, log_stride=10
    )
    best = min(r[4] for r in trace.rows)
    ok = best <= 1e-4 * initial
    _report(
        3, "restart solver error falls 4+ orders within 5 stages",
        ok, f"(initial {initial:.3e}, best {best:.3e})",
    )


def test_criterion_04_oracle_equivalence(acc_dataset, acc_graph, acc_zstar):
    # at m = 1, W = [1], so the gossip difference is exactly 0 and the
    # trajectory reads only s from the schedule: any graph's spectrum serves
    _, spec = acc_graph
    z, _ = acc_zstar
    part = ds.partition(acc_dataset, 1, 1, seed=0)
    prob = ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )
    g1 = ds.DecGraph(())
    comp = ds.Identity()
    z0 = np.array([np.full(prob.d, 5.0), np.zeros(prob.d)])
    n_iter = 500

    # independent centralized proximal gradient descent-ascent
    def centralized(s_schedule):
        x, y = z0.copy()
        states = []
        for s in s_schedule:
            gx, gy = prob.full_grads(np.array([x, y])[:, None])[:, 0]
            x = project(prob, x - s * gx, 0)
            y = project(prob, y + s * gy, 1)
            states.append((x.copy(), y.copy()))
        return states

    # restart solver, stage 0 truncated to 500 inner steps
    p0 = ds.crdpsg_stage_params(0, prob.constants, 0.0, spec)
    ens = ds.NodeEnsemble.initialize(g1, z0[:, None])
    draw = lambda: (prob.full_grads(ens.Z), 1)
    step = ds.step_plan(ens, p0, g1, draw, prob, comp, np.random.default_rng(0))
    worst_a = 0.0
    ref = centralized([p0.s] * n_iter)
    for t in range(n_iter):
        step()
        worst_a = max(
            worst_a,
            np.max(np.abs(ens.Z[0, 0] - ref[t][0])),
            np.max(np.abs(ens.Z[1, 0] - ref[t][1])),
        )

    # variance-reduced solver with all stochasticity collapsed
    vp = ds.cdpsvrg_params(prob.constants, 0.0, spec, p=1.0)
    _, ens2 = ds.run_cdpsvrg(
        prob, g1, comp, vp, n_iter, z0, z, seed=0, log_stride=n_iter
    )
    ref2 = centralized([vp.s] * n_iter)
    worst_b = max(
        np.max(np.abs(ens2.Z[0, 0] - ref2[-1][0])),
        np.max(np.abs(ens2.Z[1, 0] - ref2[-1][1])),
    )
    ok = worst_a <= 1e-12 and worst_b <= 1e-12
    _report(
        4, "single-node trajectories match centralized transcription",
        ok, f"(max deviations {worst_a:.2e}, {worst_b:.2e})",
    )


def test_criterion_05_quantizer_unbiasedness():
    rng = np.random.default_rng(17)
    d = 50
    ok = True
    details = []
    vectors_per_b = {2: 7, 4: 7, 8: 6}
    for b, count in vectors_per_b.items():
        probe = ds.Quantizer(bits=b, delta=1.0)
        dhat = estimate_delta(probe, d, 10_000, np.random.default_rng(b))
        quantize, draws = probe.bind((100_000, d), rng), np.empty((100_000, d))
        for _ in range(count):
            x = rng.standard_normal(d)
            # one row per sample: the draws of 100,000 single-vector calls
            quantize(np.tile(x, (100_000, 1)), draws)
            mean = draws.mean(axis=0)
            sem = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            # 5 sigma: ~1000 coordinate checks in total, so 3 sigma would
            # trip on noise alone; the additive slack covers float rounding
            # on the max-magnitude coordinate, which is deterministic
            if not np.all(np.abs(mean - x) <= 5 * sem + 1e-9 * np.max(np.abs(x))):
                ok = False
                details.append(f"bias at b={b}")
            ratio = float(np.mean(np.sum((draws - x) ** 2, axis=1))) / float(
                np.sum(x**2)
            )
            if ratio > dhat:
                ok = False
                details.append(f"variance ratio {ratio:.4g} > {dhat:.4g} at b={b}")
    _report(
        5, "quantizer is unbiased with variance within the estimated factor",
        ok, "; ".join(details) or "(20 vectors, b in {2,4,8})",
    )


def test_criterion_06_svrgo_exact_unbiasedness(acc_dataset):
    part = ds.partition(acc_dataset, 1, 4, seed=0)
    prob = ds.RobustLRProblem(
        acc_dataset, part, lam=ACC["lam"], beta=ACC["beta"],
        R_x=ACC["R_x"], R_y=ACC["R_y"],
    )
    # one-node stacked (2, 1, d) points
    z_ref = np.array([np.full(prob.d, 0.3), np.full(prob.d, 0.05)])[:, None]
    zq = np.array([np.full(prob.d, -1.2), np.full(prob.d, 0.1)])[:, None]
    st = SvrgState.initialize(prob, z_ref, p=0.5)
    mean_gx = np.zeros(prob.d)
    mean_gy = np.zeros(prob.d)
    var_at_ref = 0.0
    # bound draws at both points that take batch l
    pick = PickBatch(4)
    draw_q = ds.svrgo_draw(prob, zq, st, pick)
    draw_ref = ds.svrgo_draw(prob, z_ref, st, pick)
    for l in range(4):
        pick.l = l
        (gx, gy), _ = draw_q()
        mean_gx += gx[0] / prob.n
        mean_gy += gy[0] / prob.n
        (rx, ry), _ = draw_ref()
        var_at_ref += float(
            np.sum((rx[0] - st.g_tilde[0, 0]) ** 2) + np.sum((ry[0] - st.g_tilde[1, 0]) ** 2)
        )
    fx, fy = prob.full_grads(zq)[:, 0]
    dev = max(np.max(np.abs(mean_gx - fx)), np.max(np.abs(mean_gy - fy)))
    ok = dev <= 1e-14 and var_at_ref == 0.0
    _report(
        6, "variance-reduced oracle exactly unbiased, zero variance at reference",
        ok, f"(mean deviation {dev:.2e}, variance at reference {var_at_ref})",
    )


def test_criterion_07_structural_invariants(
    acc_problem, acc_graph, acc_compressor, acc_start
):
    g, spec = acc_graph
    prob = acc_problem
    params = ds.cdpsvrg_params(
        prob.constants, acc_compressor.delta, spec, p=1.0 / prob.n
    )
    ens = ds.NodeEnsemble.initialize(g, np.tile(acc_start[:, None], (1, g.m, 1)))
    state = SvrgState.initialize(prob, ens.Z, p=1.0 / prob.n)
    counters = ds.Trace()
    counters.add_grad(prob.m * prob.n)
    rng = np.random.default_rng(9)
    step = ds.step_plan(
        ens, params, g, ds.svrgo_draw(prob, ens.Z, state, rng), prob,
        acc_compressor, rng, counters,
    )
    ok = True
    details = []
    prev = (0, 0, 0)
    coords = g.m * (prob.d + prob.d)
    for t in range(10_000):
        step()
        state, cost = ds.svrgo_update_reference(state, prob, ens.Z, rng)
        counters.add_grad(cost)
        # rounding drift compounds over 10^4 tracker updates, hence the
        # looser tolerance than the short-horizon unit test; every check
        # runs block by block (x, then y)
        for D in ens.D:
            if np.abs(D.sum(axis=0)).max() > 1e-7 * (1 + np.linalg.norm(D)):
                ok, details = False, details + [f"dual-tracker drift at {t}"]
        for H, Hw in zip(ens.H, ens.Hw):
            scale = 1 + np.max(np.abs(Hw))
            if np.max(np.abs(Hw - ds.mix(g, H))) > 1e-9 * scale:
                ok, details = False, details + [f"reference mismatch at {t}"]
        for Zb, R in zip(ens.Z, (prob.R_x, prob.R_y)):
            if np.any(np.linalg.norm(Zb, axis=1) > R + 1e-9):
                ok, details = False, details + [f"ball violation at {t}"]
        cur = (counters.grad_units, counters.comm_rounds, counters.bits)
        if any(c < p for c, p in zip(cur, prev)):
            ok, details = False, details + [f"counter decreased at {t}"]
        prev = cur
        if ok is False:
            break
    if counters.bits != counters.comm_rounds * coords * (acc_compressor.bits + 1):
        ok = False
        details.append("bit accounting mismatch")
    _report(
        7, "structural invariants over a 10^4-step stochastic run",
        ok, "; ".join(details) or
        f"(rounds {counters.comm_rounds}, bits {counters.bits})",
    )


def _a4a_like_text(N=500, d=122, seed=20):
    """Deterministic LIBSVM text shaped like the a4a adult subset: binary
    sparse features, about 14 active per row."""
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(N):
        lab = "+1" if rng.random() < 0.25 else "-1"
        k = int(rng.integers(12, 16))
        idx = np.sort(rng.choice(np.arange(1, d + 1), size=k, replace=False))
        if i == 0:
            idx[-1] = d  # pin the dimension
        toks = [lab] + [f"{j}:1" for j in idx]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def test_criterion_08_lipschitz_dominance_sparse_dataset():
    import io

    dset = ds.parse_libsvm(io.StringIO(_a4a_like_text()))
    assert dset.N == 500 and dset.d == 122
    part = ds.partition(dset, 4, 5, seed=0)
    prob = ds.RobustLRProblem(dset, part, lam=1.0, beta=1.0, R_x=10.0, R_y=1.0)
    rng = np.random.default_rng(23)
    ok = True
    worst = {}
    # both points of a probe sit in nodes 0 and 1 of one bound call
    Z = np.zeros((2, prob.m, prob.d))
    grads = prob.bind_batch_grads(Z)
    for name in ("L_xx", "L_yy", "L_xy", "L_yx"):
        bound = getattr(prob.constants, name)
        blk = 0 if name in ("L_xx", "L_xy") else 1
        worst_ratio = 0.0
        for _ in range(1000):
            i = int(rng.integers(prob.m))
            j = int(rng.integers(prob.n))
            x1 = project(prob, prob.R_x * rng.standard_normal(prob.d), 0)
            x2 = project(prob, prob.R_x * rng.standard_normal(prob.d), 0)
            y1 = project(prob, prob.R_y * rng.standard_normal(prob.d), 1)
            y2 = project(prob, prob.R_y * rng.standard_normal(prob.d), 1)
            Z[0, 0], Z[1, 0] = x1, y1
            if name in ("L_xx", "L_yx"):
                Z[0, 1], Z[1, 1] = x2, y1
                den = np.linalg.norm(x1 - x2)
            else:  # L_yy, L_xy
                Z[0, 1], Z[1, 1] = x1, y2
                den = np.linalg.norm(y1 - y2)
            G = grads(np.full(prob.m, i * prob.n + j))
            num = np.linalg.norm(G[blk, 0] - G[blk, 1])
            if den > 1e-12:
                ratio = num / den
                worst_ratio = max(worst_ratio, ratio / bound)
                if ratio > bound * (1 + 1e-9):
                    ok = False
        worst[name] = worst_ratio
    _report(
        8, "smoothness constants dominate sampled gradient-difference ratios",
        ok, "(worst ratio/bound: " + ", ".join(
            f"{k} {v:.3f}" for k, v in worst.items()) + ")",
    )


def test_criterion_09_reference_fixed_point(acc_zstar, acc_zstar_alt):
    z, res = acc_zstar
    z2, res2 = acc_zstar_alt
    gap = float(np.linalg.norm(z[0] - z2[0]) + np.linalg.norm(z[1] - z2[1]))
    ok = res <= 1e-7 and res2 <= 1e-7 and gap <= 1e-7
    _report(
        9, "reference saddle point: tiny residual, seed-independent",
        ok, f"(residuals {res:.2e}, {res2:.2e}; seed gap {gap:.2e})",
    )


def test_criterion_10_refresh_probability_trend(
    acc_problem, acc_graph, acc_compressor, acc_zstar, acc_start
):
    g, spec = acc_graph
    z, _ = acc_zstar
    units = {}
    for p in (1.0 / acc_problem.n, 1.0 / acc_problem.constants.kappa_f):
        trace, _ = ds.run_cdpsvrg(
            acc_problem, g, acc_compressor,
            svrg_params(acc_problem, acc_compressor, spec, p), 20_000, acc_start, z,
            seed=3, log_stride=10,
        )
        units[p] = next((r[1] for r in trace.rows if r[4] <= 1e-6), None)
    p_small, p_big = sorted(units)
    ok = (
        units[p_small] is not None
        and units[p_big] is not None
        and units[p_small] < units[p_big]
    )
    _report(
        10, "smaller refresh probability reaches 1e-6 with fewer gradient units",
        ok, f"(p={p_small:.3f}: {units[p_small]}; p={p_big:.3f}: {units[p_big]})",
    )


def test_criterion_11_byte_identical_csv(tmp_path):
    outputs = []
    for run in range(2):
        out = tmp_path / f"trace{run}.csv"
        cfg = {
            "algorithm": "cdpsvrg",
            "topology": {"kind": "ring", "m": 4},
            "dataset": {"kind": "synthetic", "N": 60, "d": 6, "seed": 2},
            "partition": {"n": 2},
            "problem": {"lambda": 2.0, "beta": 2.0, "R_x": 5.0, "R_y": 1.0},
            "compression": {"kind": "qinf", "bits": 4},
            "budget": {"iterations": 300},
            "seed": 11,
            "log": {"stride": 10, "output": str(out)},
            "reference": {"compute": {"iterations": 100000, "tol": 1e-22}},
        }
        cfg_path = tmp_path / f"cfg{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "decsaddle.cli", "run", str(cfg_path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(
        11, "identical config and seed give byte-identical trace files",
        ok, f"({len(outputs[0])} bytes)",
    )
