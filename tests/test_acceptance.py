"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -s or -rA)."""

import math

import numpy as np
import pytest

from lrdetect import (
    FgnParams,
    GphConfig,
    QuantileMeasure,
    RegressionFit,
    StudyConfig,
    SubordinationParams,
    TimeSeries,
    VariancePlotConfig,
    block_mean_variances,
    classify_lrd_gph,
    classify_lrd_variance,
    fit_series,
    full_ordinates,
    gph_estimate,
    gph_from_ordinates,
    replication_seed,
    run_study,
    simulate_fgn,
    subordinate,
    variance_plot_slope,
    write_study_outputs,
)
from lrdetect.series import WindowGrid
from oracles import (
    autocovariance_vector,
    brute_force_dft_periodogram,
    exact_mean_variance,
    naive_block_variances,
)

MASTER_SEED = 20240


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _by_cutoff(reports, estimator, pair):
    for r in reports:
        if r.estimator == estimator and (r.n1, r.n2) == pair:
            return r
    raise LookupError((estimator, pair))


def _one_window_fit(xs, ys):
    """The kernel's fit of ys on xs over one window holding every point."""
    [(_, slopes)] = WindowGrid(xs, [(0, len(xs) - 1)]).slope_blocks([ys])
    return RegressionFit(float(slopes[0, 0]))


@pytest.fixture(scope="module")
def fgn_benchmark_run():
    cfg = StudyConfig(
        scenario="fgn",
        lengths=(200,),
        replications=100,
        master_seed=MASTER_SEED,
        variance_cutoffs=((1, 4),),
        gph_cutoffs=((1, 141),),
        workers=1,
    )
    return run_study(cfg)


@pytest.fixture(scope="module")
def subordinated_benchmark_run():
    cfg = StudyConfig(
        scenario="subordinated-fgn",
        lengths=(200,),
        replications=100,
        master_seed=MASTER_SEED,
        variance_cutoffs=((1, 14),),
        gph_cutoffs=((5, 88),),
        psi=100,
        alpha=1.0,
        workers=1,
    )
    return run_study(cfg)


def test_criterion_1_variance_benchmark(fgn_benchmark_run):
    r = _by_cutoff(fgn_benchmark_run, "variance", (1, 4))
    ok = (
        abs(r.accuracy - 0.9081) <= 0.03
        and abs(r.sensitivity - 0.8835) <= 0.04
        and abs(r.specificity - 0.9327) <= 0.04
    )
    _report(
        1,
        ok,
        f"variance (1,4) acc={r.accuracy:.4f} sens={r.sensitivity:.4f} "
        f"spec={r.specificity:.4f} vs 0.9081/0.8835/0.9327",
    )


def test_criterion_2_gph_benchmark(fgn_benchmark_run):
    r = _by_cutoff(fgn_benchmark_run, "gph", (1, 141))
    ok = abs(r.accuracy - 0.8908) <= 0.03
    _report(2, ok, f"gph (1,141) acc={r.accuracy:.4f} vs 0.8908")


def test_criterion_3_subordinated_benchmark(subordinated_benchmark_run):
    var = _by_cutoff(subordinated_benchmark_run, "variance", (1, 14))
    gph = _by_cutoff(subordinated_benchmark_run, "gph", (5, 88))
    ok = (
        abs(var.accuracy - 0.6775) <= 0.04
        and abs(var.sensitivity - 0.8770) <= 0.05
        and abs(var.specificity - 0.4780) <= 0.06
        and abs(gph.accuracy - 0.6436) <= 0.04
    )
    _report(
        3,
        ok,
        f"variance (1,14) acc={var.accuracy:.4f} sens={var.sensitivity:.4f} "
        f"spec={var.specificity:.4f}; gph (5,88) acc={gph.accuracy:.4f}",
    )


def test_criterion_4_simulator_exact_law():
    n, reps = 1024, 500
    worst = 0.0
    for h_index, hurst in enumerate((0.3, 0.5, 0.7, 0.9)):
        p = FgnParams(hurst=hurst, n=n)
        want = exact_mean_variance(autocovariance_vector(p, np.arange(n)).__getitem__, n)
        assert abs(want - n ** (2 * hurst - 2)) <= 1e-10 * want
        means = np.array(
            [
                simulate_fgn(p, replication_seed(MASTER_SEED, "fgn", h_index, r)).values.mean()
                for r in range(reps)
            ]
        )
        se = want * math.sqrt(2.0 / (reps - 1))
        worst = max(worst, abs(means.var(ddof=1) - want) / se)
    _report(4, worst <= 5.0, f"worst deviation {worst:.2f} standard errors (limit 5)")


def test_criterion_5_consistency_trend():
    cfg = VariancePlotConfig(delta=0.25, m=4.0)
    medians = []
    for n_index, n in enumerate((2**12, 2**14, 2**16)):
        deviations = [
            abs(
                variance_plot_slope(
                    simulate_fgn(FgnParams(hurst=0.7, n=n), replication_seed(5150, "fgn", 0, r)),
                    cfg,
                ).slope
                - (-0.6)
            )
            for r in range(50)
        ]
        medians.append(float(np.median(deviations)))
    ok = medians[0] > medians[1] > medians[2]
    _report(5, ok, f"median |slope + 0.6| = {[round(m, 4) for m in medians]}")


def test_criterion_6_oracle_equivalences():
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(50, 513))
        series = TimeSeries(rng.standard_normal(n))
        fast = full_ordinates(series)[1 : (n - 1) // 2 + 1]
        brute = brute_force_dft_periodogram(series)
        scale = brute.max()
        assert np.allclose(fast, brute, rtol=1e-8, atol=1e-13 * scale), f"periodogram mismatch at n={n}"
    for _ in range(100):
        n = int(rng.integers(30, 260))
        series = TimeSeries(rng.standard_normal(n) * rng.uniform(0.5, 4.0))
        fast = block_mean_variances(series, 1, max(2, n // 3))
        slow = naive_block_variances(series, 1, max(2, n // 3))
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-15), f"blocks at n={n}"
    for _ in range(100):
        n = int(rng.integers(20, 400))
        v = rng.standard_normal(n)
        ords = full_ordinates(TimeSeries(v))
        lhs = (2 * np.pi / n) * math.fsum(ords)
        rhs = math.fsum(v * v) / n
        assert abs(lhs - rhs) <= 1e-10 * rhs, f"parseval at n={n}"
    lengths = np.arange(1, 51)
    injected = _one_window_fit(np.log(lengths), np.log(2.0 * lengths**-0.6))
    assert abs(injected.slope - (-0.6)) <= 1e-10
    indices = np.arange(1, 300)
    b = -2.0 * np.log(2 * np.pi * indices / 300)
    log_linear = np.concatenate([[1.0], np.exp(-0.4 + 0.3 * b)])
    fit = gph_from_ordinates(log_linear, 300, GphConfig(trim=1, bandwidth=120))
    assert abs(fit.slope - 0.3) <= 1e-10
    exact_line = _one_window_fit([1.0, 2.0, 3.0], [5.0, 3.0, 1.0])
    assert exact_line.slope == -2.0
    _report(6, True, "fft/brute 1e-8, blocks 1e-9, parseval 1e-10, exact lines 1e-10")


def test_criterion_7_invariance_suite(tmp_path):
    # affine-transform invariance of both classifiers
    var_cfg = VariancePlotConfig(n1=1, n2=12)
    gph_cfg = GphConfig(trim=1, bandwidth=17)
    for h_index, hurst in enumerate((0.3, 0.45, 0.55, 0.7, 0.85)):
        base = simulate_fgn(FgnParams(hurst=hurst, n=300), replication_seed(707, "fgn", h_index, 0))
        labels = (
            classify_lrd_variance(variance_plot_slope(base, var_cfg)),
            classify_lrd_gph(gph_estimate(base, gph_cfg)),
        )
        for a, c in ((2.0, 3.0), (-0.5, -40.0)):
            mapped = TimeSeries(a * base.values + c)
            assert classify_lrd_variance(variance_plot_slope(mapped, var_cfg)) == labels[0]
            assert classify_lrd_gph(gph_estimate(mapped, gph_cfg)) == labels[1]

    # strict-monotone-transform invariance of the excursion pipeline
    rng = np.random.default_rng(708)
    levels = QuantileMeasure(rng.uniform(0.01, 0.99, size=60))
    for estimator in (var_cfg, gph_cfg):
        for h_index in range(3):
            y = simulate_fgn(
                FgnParams(hurst=0.6 + 0.1 * h_index, n=400),
                replication_seed(709, "subordinated-fgn", h_index, 0),
            )
            z = subordinate(y, SubordinationParams(1.0))
            base_label = fit_series(z, estimator, levels)[2]
            monotone = TimeSeries(np.log(z.values) * 3.0 + 1.0)
            assert fit_series(monotone, estimator, levels)[2] == base_label

    # alpha-invariance of subordinated-study metrics
    digests = {}
    for alpha in (1.0, 0.5):
        cfg = StudyConfig(
            scenario="subordinated-fgn",
            lengths=(100,),
            replications=10,
            master_seed=710,
            variance_cutoffs=((1, 10), (2, 14)),
            gph_cutoffs=((1, 20),),
            psi=50,
            alpha=alpha,
            workers=1,
        )
        paths = write_study_outputs(cfg, run_study(cfg), tmp_path / f"alpha_{alpha}")
        digests[alpha] = paths[0].read_bytes()
    assert digests[1.0] == digests[0.5]

    # worker-count determinism, byte-identical CSV
    outputs = {}
    for workers in (1, 2):
        cfg = StudyConfig(
            scenario="fgn",
            lengths=(80,),
            replications=10,
            master_seed=711,
            variance_cutoffs=((1, 4), (2, 9), (1, 20)),
            gph_cutoffs=((1, 12), (3, 40)),
            workers=workers,
        )
        paths = write_study_outputs(cfg, run_study(cfg), tmp_path / f"workers_{workers}")
        outputs[workers] = paths[0].read_bytes()
    assert outputs[1] == outputs[2]
    _report(7, True, "affine, monotone, alpha, and worker-count invariances hold")


def test_criterion_8_indicator_covariances_nonnegative():
    y = simulate_fgn(FgnParams(hurst=0.7, n=100_000), replication_seed(812, "subordinated-fgn", 0, 0))
    z = subordinate(y, SubordinationParams(1.0)).values
    thresholds = np.quantile(z, [0.1, 0.3, 0.5, 0.7, 0.9])
    batches = 50
    worst = math.inf
    for u in thresholds:
        above_u = (z > u).astype(np.float64)
        for v in thresholds:
            above_v = (z > v).astype(np.float64)
            for lag in range(1, 11):
                a = above_u[: z.size - lag]
                b = above_v[lag:]
                products = a * b
                cov = products.mean() - a.mean() * b.mean()
                per_batch = (
                    products[: (products.size // batches) * batches]
                    .reshape(batches, -1)
                    .mean(axis=1)
                    - a.mean() * b.mean()
                )
                se = per_batch.std(ddof=1) / math.sqrt(batches)
                worst = min(worst, cov / se)
    _report(8, worst >= -5.0, f"minimum covariance/SE {worst:.2f} (limit -5)")
