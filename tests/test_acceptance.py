"""Acceptance gate: one test per shipped criterion.

Each test prints a single `criterion N (...): PASS/FAIL` line directly to the
terminal (bypassing capture) with the measured numbers, then asserts.  The
desk-scale fixtures (dataset and two trained variants) are shared across
criteria, so this module carries the bulk of the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from cfswarm.boids import SimConfig, step
from cfswarm.data import generate_dataset, ground_truth_ite
from cfswarm.gradcheck import grl_sign_report, run_gradcheck
from cfswarm.metrics import compute_metrics, effect_errors, evaluate
from cfswarm.model import CrnModel, ModelDims, ModelVariant, stacked
from cfswarm.sweep import covariate_tradeoff, default_grid, format_table, \
    sensitivity_sweep
from cfswarm.training import TrainConfig, train
import cfswarm.tensor as T
from cfswarm.cli import main as cli_main
from cfswarm.config import RunConfig, DataConfig, EvalConfig, PathsConfig

from test_boids import oracle_step, random_state
from test_config_cli import TOY_INI
from test_metrics import perfect_predictions

DESK = SimConfig()  # the tuned desk world: K=20, T=14, box 20, dt 0.15

SMALL_WORLD = SimConfig(n_agents=5, n_steps=8, burn_in=5,
                        t_i_start=5, t_i_end=7)
SMALL_DIMS = ModelDims(hidden=6, latent=3, feat=6, gnn_hidden=6, gnn_edge=6,
                       mlp_hidden=6, g_hidden=4, g_latent=2, g_feat=4,
                       rnn_hidden=6)


@pytest.fixture
def shout(capsys):
    def _shout(line):
        with capsys.disabled():
            print(f"\n{line}", flush=True)
    return _shout


@pytest.fixture(scope="module")
def desk_ds():
    return generate_dataset(DESK, 2000, 200, 200, seed=0)


@pytest.fixture(scope="module")
def desk_runs(desk_ds):
    runs = {}
    for variant in (ModelVariant.TG_CRN, ModelVariant.RNN_BASELINE):
        model = CrnModel(variant, desk_ds.cfg)
        started = time.perf_counter()
        store, summary = train(model, desk_ds, TrainConfig())
        wall = time.perf_counter() - started
        report, _, _ = evaluate(model, store, desk_ds)
        runs[variant] = {"summary": summary, "report": report, "wall": wall}
    return runs


def test_criterion_1_ground_truth_effect(shout):
    started = time.perf_counter()
    ds = generate_dataset(DESK, 1, 1, 200, seed=0)
    gen_s = time.perf_counter() - started
    tau, _ = ground_truth_ite(ds.cf)
    mean_tau = float(tau.mean())
    ok = 0.0 < mean_tau and 0.02 <= mean_tau <= 0.30 and gen_s < 60.0
    shout(f"criterion 1 (ground-truth effect): {'PASS' if ok else 'FAIL'} - "
          f"mean tau {mean_tau:+.4f} over {tau.shape[0]} episodes x "
          f"{tau.shape[1]} arms (band [0.02, 0.30]), generation {gen_s:.1f}s")
    assert mean_tau > 0.0
    assert 0.02 <= mean_tau <= 0.30
    assert gen_s < 60.0


def test_criterion_2_gradient_suite(shout):
    started = time.perf_counter()
    result = run_gradcheck()
    wall = time.perf_counter() - started
    worst_op = max(max(result["ops"].values()), max(result["blocks"].values()))
    worst_e2e = max(result["end_to_end"].values())
    ok = result["passed"] and worst_op < 1e-4 and worst_e2e < 1e-3 \
        and wall < 60.0
    shout(f"criterion 2 (gradient suite): {'PASS' if ok else 'FAIL'} - "
          f"worst op/block {worst_op:.2e} (tol 1e-4), worst end-to-end "
          f"{worst_e2e:.2e} (tol 1e-3), {wall:.1f}s")
    assert worst_op < 1e-4
    assert worst_e2e < 1e-3
    assert result["passed"]
    assert wall < 60.0


def test_criterion_3_simulator_oracle(shout):
    cfg = SimConfig(n_agents=5)
    worst = 0.0
    for i in range(100):
        state = random_state(cfg, seed=1000 + i, spread=3.0)
        r_o = cfg.orientation_radius_treated if i % 2 else \
            cfg.orientation_radius
        got = step(state, r_o, cfg)
        pos, head = oracle_step(state.positions.tolist(),
                                state.headings.tolist(), r_o, cfg)
        worst = max(worst,
                    float(np.max(np.abs(got.positions - pos))),
                    float(np.max(np.abs(got.headings - head))))

    soak_cfg = SimConfig()
    state = random_state(soak_cfg, seed=9, spread=soak_cfg.box_half / 2)
    beta = soak_cfg.max_turn_rad
    worst_norm = worst_turn = worst_box = 0.0
    for _ in range(10_000):
        prev = state.headings
        state = step(state, soak_cfg.orientation_radius, soak_cfg)
        norms = np.sqrt((state.headings ** 2).sum(axis=1))
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - 1.0))))
        cross = prev[:, 0] * state.headings[:, 1] \
            - prev[:, 1] * state.headings[:, 0]
        dot = (prev * state.headings).sum(axis=1)
        worst_turn = max(worst_turn,
                         float(np.max(np.abs(np.arctan2(cross, dot)))))
        worst_box = max(worst_box, float(np.max(np.abs(state.positions))))
    soak_ok = worst_norm <= 1e-9 and worst_turn <= beta + 1e-9 \
        and worst_box <= soak_cfg.box_half
    ok = worst < 1e-12 and soak_ok
    shout(f"criterion 3 (simulator oracle): {'PASS' if ok else 'FAIL'} - "
          f"worst one-step deviation {worst:.2e} over 100 states "
          f"(tol 1e-12); 10^4-step soak: heading drift {worst_norm:.1e}, "
          f"max turn {worst_turn:.4f} <= {beta:.4f}, max |pos| "
          f"{worst_box:.2f} <= {soak_cfg.box_half}")
    assert worst < 1e-12
    assert soak_ok


def test_criterion_4_permutation_equivariance(shout):
    from cfswarm.boids import simulate
    rng = np.random.default_rng(4)
    worst = 0.0
    cfg = SMALL_WORLD
    episodes = [simulate(cfg, s, 6 if s % 2 else None) for s in range(5)]
    for case in range(50):
        variant = ModelVariant.TGV_CRN if case % 2 else ModelVariant.GV_CRN
        model = CrnModel(variant, cfg, SMALL_DIMS)
        store = model.init_store(case)
        ep = episodes[case % len(episodes)]
        x_local = ep.x_local[None].astype(np.float64)
        x_global = ep.x_global[None].astype(np.float64)
        treatment = ep.treatment[None].astype(np.float64)
        perm = rng.permutation(cfg.n_agents)

        leaves = store.bind(T.Tape(record=False))
        base = model.rollout(leaves, x_local, x_global, treatment, "infer")
        leaves = store.bind(T.Tape(record=False))
        swap = model.rollout(leaves, x_local[:, :, perm], x_global,
                             treatment, "infer")
        worst = max(
            worst,
            float(np.max(np.abs(stacked(base, "y_hat")
                                - stacked(swap, "y_hat")))),
            float(np.max(np.abs(stacked(base, "a_prob")
                                - stacked(swap, "a_prob")))),
            float(np.max(np.abs(stacked(base, "x_loc_hat")[:, :, perm]
                                - stacked(swap, "x_loc_hat")))))
    ok = worst <= 1e-9
    shout(f"criterion 4 (permutation equivariance): "
          f"{'PASS' if ok else 'FAIL'} - worst deviation {worst:.2e} over "
          f"50 cases, tgv/gv variants (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_5_desk_training(desk_runs, shout):
    tg = desk_runs[ModelVariant.TG_CRN]
    rnn = desk_runs[ModelVariant.RNN_BASELINE]

    improved = {v.value: r["summary"]["best_val"]
                < r["summary"]["initial_val"]["total"]
                for v, r in desk_runs.items()}
    cov_ordered = tg["report"].l_covariates < rnn["report"].l_covariates
    best = min(desk_runs.values(), key=lambda r: r["summary"]["best_val"])
    timing_ok = best["report"].timing_err <= 2.5
    ly_first = tg["summary"]["rows"][0]["train_l_y"]
    ly_last = tg["summary"]["rows"][-1]["train_l_y"]
    ly_halved = ly_last < 0.5 * ly_first
    ok = all(improved.values()) and cov_ordered and timing_ok and ly_halved
    shout(
        f"criterion 5 (desk training): {'PASS' if ok else 'FAIL'} - "
        f"(a) val improved {improved}; "
        f"(b) l_covariates tg {tg['report'].l_covariates:.4f} < rnn "
        f"{rnn['report'].l_covariates:.4f}: {cov_ordered}; "
        f"(c) best-variant ({best['report'].variant}) timing err "
        f"{best['report'].timing_err:.2f} <= 2.5: {timing_ok}; "
        f"train l_y {ly_first:.4f} -> {ly_last:.4f} (halved: {ly_halved}); "
        f"walls tg {tg['wall']:.0f}s / rnn {rnn['wall']:.0f}s "
        f"(target < 1800s each)")
    assert all(improved.values())
    assert cov_ordered
    assert timing_ok
    assert ly_halved


def test_criterion_6_gradient_reversal(shout):
    report = grl_sign_report(n_draws=10)
    ok = all(report.values())
    shout(f"criterion 6 (gradient reversal): {'PASS' if ok else 'FAIL'} - "
          f"10 draws, upstream sign flipped: "
          f"{report['upstream_sign_flipped']}, classifier grads identical: "
          f"{report['classifier_identical']}")
    assert report["upstream_sign_flipped"]
    assert report["classifier_identical"]


def test_criterion_7_metric_self_check(desk_ds, shout):
    cf = desk_ds.cf
    y_pred, x_loc_pred, x_g_pred = perfect_predictions(cf, desk_ds.cfg)
    report, _ = compute_metrics(cf, y_pred, x_loc_pred, x_g_pred,
                                desk_ds.cfg)
    zeros = (report.l_outcome, report.l_covariates, report.pehe_sqrt,
             report.ate_abs_err, report.timing_err)
    pehe, ate = effect_errors(np.array([[2.0], [2.0]]),
                              np.array([[1.0], [3.0]]))
    ok = zeros == (0.0,) * 5 and pehe[0] == 1.0 and ate[0] == 0.0
    shout(f"criterion 7 (metric self-check): {'PASS' if ok else 'FAIL'} - "
          f"ground-truth predictions score {zeros}; hand case "
          f"sqrt-PEHE {pehe[0]:.1f} (want 1.0), ATE err {ate[0]:.1f} "
          f"(want 0.0)")
    assert zeros == (0.0,) * 5
    assert pehe[0] == 1.0
    assert ate[0] == 0.0


def test_criterion_8_cli_determinism(tmp_path, shout):
    config = tmp_path / "run.ini"
    config.write_text(TOY_INI.format(root=tmp_path))

    def manifest_files(out):
        return json.loads((out / "run_manifest.json").read_text())["files"]

    def run_all(tag, gen_out):
        # the config's dataset_dir ({root}/dataset) feeds both train runs
        outs = {}
        assert cli_main(["gen", "--config", str(config),
                         "--out", str(gen_out)]) == 0
        outs["gen"] = manifest_files(gen_out)
        tr = tmp_path / f"tr-{tag}"
        assert cli_main(["train", "--config", str(config),
                         "--out", str(tr)]) == 0
        outs["train"] = manifest_files(tr)
        ev = tmp_path / f"ev-{tag}"
        assert cli_main(["eval", "--config", str(config), "--out", str(ev),
                         "--checkpoint", str(tr / "best")]) == 0
        outs["eval"] = manifest_files(ev)
        return outs

    first = run_all("a", tmp_path / "dataset")
    second = run_all("b", tmp_path / "ds-b")
    same = {cmd: first[cmd] == second[cmd] for cmd in first}
    ok = all(same.values())
    counts = {cmd: len(first[cmd]) for cmd in first}
    shout(f"criterion 8 (determinism): {'PASS' if ok else 'FAIL'} - "
          f"checksum-identical across two runs: {same} "
          f"(files per command: {counts})")
    assert all(same.values())


def test_criterion_9_sensitivity_sweep(shout):
    ds = generate_dataset(SMALL_WORLD, 8, 2, 2, seed=3)
    run_cfg = RunConfig(sim=SMALL_WORLD, data=DataConfig(8, 2, 2, 3),
                        variant=ModelVariant.TGV_CRN, dims=SMALL_DIMS,
                        train=TrainConfig(epochs=2, batch_size=8,
                                          micro_batch=4, lr=1e-3),
                        eval=EvalConfig(), paths=PathsConfig())
    grid = default_grid()
    rows = sensitivity_sweep(run_cfg, ds, grid)
    table = format_table(rows)
    tradeoff = covariate_tradeoff(rows)
    complete = len(rows) == 7 and len(grid) == 7 and "l_covariates" in table
    ok = complete and tradeoff is not None
    if tradeoff is None:
        detail = "gamma rows missing from the grid"
    else:
        soft = "holds" if tradeoff["holds"] else \
            "violated (soft check, reported only)"
        detail = (f"gamma trade-off l_cov[gamma=1.0] "
                  f"{tradeoff['l_cov_gamma_hi']:.4f} vs [gamma=0.01] "
                  f"{tradeoff['l_cov_gamma_lo']:.4f}: {soft}")
    shout(f"criterion 9 (sensitivity sweep): {'PASS' if ok else 'FAIL'} - "
          f"7-point grid completed ({len(rows)} rows); {detail}")
    assert complete
    assert tradeoff is not None
    # the gamma ordering itself is a soft check: reported, never asserted
