"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success (visible with -s); under
plain `pytest -v` the test name plus PASSED/FAILED serves as the per
criterion verdict line.
"""

import time

import numpy as np

from conftest import (
    REFERENCE_BATCH,
    finite_difference_worst_rel,
    perturbed_reference_model,
)
from longmem.aggregator import EmaState, LearningRateSchedule, ema_init, ema_update
from longmem.embeddings import EmbeddedSeries
from longmem.estimator import (
    EstimatorConfig,
    FullBand,
    LowFrequency,
    estimate_from_periodogram,
    mi_decay_slope,
)
from longmem.evornn import TrainConfig, build_model, task_lag_recall, train_toy
from longmem.evornn.train import sample_negatives
from longmem.schedule import (
    CellSchedule,
    build_preset,
    constant_schedule,
    cost_multiply_adds,
    desk_schedule,
    lookup_cell,
)
from longmem.spectral import Periodogram, dft_naive, periodogram, periodograms
from longmem.synth import FgnSpec, fgn_autocov, generate_fgn, shuffle_series

T = 2048
M45 = LowFrequency(45)


def _averaged_estimate(series_list, config):
    block = np.stack([s if s.ndim == 2 else s[:, None] for s in series_list])
    power = periodograms(block.transpose(0, 2, 1)).mean(axis=0)
    mean_pg = Periodogram(length=block.shape[1], power=power)
    return estimate_from_periodogram(mean_pg, config)


def test_criterion_01_cost_table_exact():
    started = time.perf_counter()
    expected = {
        "lm-baseline": 536870912,
        "lm-powerlaw": 24903680,
        "lm-exp": 22790144,
        "seqrec-baseline": 33554432,
        "seqrec-powerlaw": 6029312,
        "seqrec-exp": 6080928,
        "seqrec-extrexp": 8948096,
    }
    for name, cost in expected.items():
        assert cost_multiply_adds(build_preset(name)) == cost, name
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: all seven preset costs exact ({elapsed:.3f}s)")


def test_criterion_02_known_d_recovery():
    started = time.perf_counter()
    config = EstimatorConfig(pad_length=T, cutoff=M45)
    errors = {}
    for i, d_true in enumerate([0.1, 0.2, 0.3, 0.4]):
        series = [
            generate_fgn(FgnSpec(hurst=d_true + 0.5, length=T, seed=10000 * (i + 1) + s))
            for s in range(200)
        ]
        est = _averaged_estimate(series, config)
        errors[d_true] = abs(est.d[0] - d_true)
        assert errors[d_true] <= 0.05, f"d={d_true}: err={errors[d_true]:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    worst = max(errors.values())
    print(f"PASS criterion 2: worst |mean d_hat - d| = {worst:.4f} <= 0.05 ({elapsed:.1f}s)")


def test_criterion_03_null_calibration():
    config = EstimatorConfig(pad_length=T, cutoff=FullBand())
    series = [np.random.default_rng(20000 + s).standard_normal((T, 4)) for s in range(200)]
    est = _averaged_estimate(series, config)
    worst = float(np.max(np.abs(est.d)))
    assert worst <= 0.02, f"max |d_hat| = {worst:.4f}"
    print(f"PASS criterion 3: white noise max |d_hat| = {worst:.4f} <= 0.02 across 4 dims")


def test_criterion_04_shuffle_control():
    series = [generate_fgn(FgnSpec(hurst=0.9, length=T, seed=40000 + s)) for s in range(200)]
    embedded = [EmbeddedSeries(x[:, None]) for x in series]
    shuffled = [shuffle_series(e, seed=99000 + s) for s, e in enumerate(embedded)]

    avg_config = EstimatorConfig(pad_length=T, cutoff=M45)
    d_plain = _averaged_estimate([e.values for e in embedded], avg_config).d[0]
    d_shuffled = _averaged_estimate([e.values for e in shuffled], avg_config).d[0]
    assert d_plain >= 0.3, f"unshuffled d_hat = {d_plain:.4f}"
    assert abs(d_shuffled) <= 0.05, f"shuffled d_hat = {d_shuffled:.4f}"

    seq_config = EstimatorConfig(pad_length=T, cutoff=FullBand())
    pvalues = [
        estimate_from_periodogram(periodogram(e), seq_config).pvalue[0] for e in embedded
    ]
    median_p = float(np.median(pvalues))
    assert median_p < 1e-6, f"median p = {median_p:.3e}"
    print(
        f"PASS criterion 4: unshuffled d_hat {d_plain:.3f} >= 0.3, "
        f"shuffled |{d_shuffled:.4f}| <= 0.05, median slope p {median_p:.2e} < 1e-6"
    )


def test_criterion_05_mi_decay_slope():
    lags = range(32, 513)
    results = {}
    for hurst, target in [(0.8, -0.8), (0.75, -1.0)]:
        fit = mi_decay_slope(lambda h, hurst=hurst: fgn_autocov(hurst, h), lags)
        results[hurst] = (fit.slope, target)
        assert abs(fit.slope - target) <= 0.1, f"H={hurst}: slope={fit.slope:.4f}"
    summary = ", ".join(
        f"H={h}: {s:.4f} (target {t})" for h, (s, t) in results.items()
    )
    print(f"PASS criterion 5: MI decay slopes within 0.1: {summary}")


def test_criterion_06_spectral_correctness():
    # the pipeline's own spectrum: periodogram power at k = 1..L/2
    rng = np.random.default_rng(7)
    worst = 0.0
    length = 2
    while length <= 256:
        x = rng.standard_normal(length)
        fast = periodograms(x[None])[0]
        naive = np.abs(dft_naive(x)[1:]) ** 2
        scale = float(np.max(naive))
        worst = max(worst, float(np.max(np.abs(fast - naive))) / scale)
        length *= 2
    assert worst < 1e-10, f"worst pipeline-vs-naive rel err = {worst:.3e}"

    x = rng.standard_normal(1024)
    power = periodograms(x[None])[0]
    # the DC bin the pipeline drops has power (sum x)^2
    spectral = (x.sum() ** 2 + 2.0 * np.sum(power[:-1]) + power[-1]) / x.size
    direct = float(np.sum(x**2))
    parseval_rel = abs(spectral - direct) / direct
    assert parseval_rel < 1e-9, f"Parseval rel err = {parseval_rel:.3e}"
    print(
        f"PASS criterion 6: pipeline spectrum matches naive DFT (worst rel {worst:.2e}), "
        f"Parseval rel err {parseval_rel:.2e}"
    )


def test_criterion_07_gradient_fidelity():
    model = perturbed_reference_model()
    worst_full = finite_difference_worst_rel(model, REFERENCE_BATCH, TrainConfig(negatives=7))
    assert worst_full < 1e-4, f"full softmax worst rel = {worst_full:.3e}"

    labels = np.array([[3], [0]])
    negatives = sample_negatives(np.random.default_rng(3), labels, 8, 3)
    worst_sampled = finite_difference_worst_rel(
        model, REFERENCE_BATCH, TrainConfig(negatives=3), negatives=negatives
    )
    assert worst_sampled < 1e-4, f"sampled worst rel = {worst_sampled:.3e}"
    print(
        f"PASS criterion 7: finite-difference rel err {worst_full:.2e} (full), "
        f"{worst_sampled:.2e} (sampled) < 1e-4"
    )


def test_criterion_08_evornn_trainability():
    started = time.perf_counter()
    schedule = desk_schedule("powerlaw", seq_len=64, max_hidden=128)
    baseline = constant_schedule(64, 128)
    cost_ratio = cost_multiply_adds(schedule) / cost_multiply_adds(baseline)
    assert cost_ratio <= 0.30, f"cost ratio = {cost_ratio:.4f}"

    model = build_model(
        vocab_size=64, emb_dim=32, schedule=schedule, decoder_dim=32, horizon=0, seed=0
    )
    task = task_lag_recall(vocab_size=64, seq_len=64, tail_exponent=2.0, seed=1)
    config = TrainConfig(
        learning_rate=1.0, clip_norm=1.0, negatives=63, steps=3000, batch_size=64, seed=0
    )
    result = train_toy(model, task, config)

    losses = np.array([m.loss for m in result.history])
    running = np.convolve(losses, np.ones(100) / 100.0, mode="valid")
    best = float(running.min())
    first = int(np.argmax(running <= 2.08)) + 100 if best <= 2.08 else -1
    assert best <= 2.08, f"best 100-step mean CE = {best:.4f}"

    instrumented = result.history[0].multiply_adds
    assert instrumented == 3 * cost_multiply_adds(schedule)
    instrumented_ratio = instrumented / (3 * cost_multiply_adds(baseline))
    assert instrumented_ratio <= 0.30, f"instrumented ratio = {instrumented_ratio:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        f"PASS criterion 8: CE(ma100) {best:.3f} <= 2.08 by step {first} "
        f"(<= 3000 < 5000), multiply-add ratio {instrumented_ratio:.3f} <= 0.30 "
        f"({elapsed:.0f}s)"
    )


def test_criterion_09_ema_identities():
    schedule = LearningRateSchedule(alpha0=1.0, tau=1.0)  # alpha_i = 1/(i+1)
    rng = np.random.default_rng(123)
    stream = rng.standard_normal((200, 3))
    state = ema_init(3)
    worst = 0.0
    for n, row in enumerate(stream, start=1):
        state = ema_update(state, row[None, :], schedule)
        mean = stream[:n].mean(axis=0)
        worst = max(worst, float(np.max(np.abs(state.d_hat - mean))))
    assert worst <= 1e-12, f"running-mean deviation = {worst:.3e}"

    constant = np.array([[0.17, -0.4, 0.33]])
    fixed = ema_init(3)
    for _ in range(50):
        fixed = ema_update(fixed, constant, LearningRateSchedule())
        assert np.array_equal(fixed.d_hat, constant[0])
    print(
        f"PASS criterion 9: running-mean identity within {worst:.1e} <= 1e-12, "
        "constant-stream fixed point exact"
    )


def test_criterion_10_appendix_schedule_semantics():
    schedule = CellSchedule(((6, 2), (8, 4), (4, 8), (2, 16)))
    length = 20
    expected = {0: 16, 1: 16, 2: 8, 5: 8, 6: 4, 13: 4, 14: 2}
    for t_prime, hidden in expected.items():
        t = length - 1 - t_prime
        _, got = lookup_cell(t, length, schedule)
        assert got == hidden, f"t'={t_prime}: hidden {got} != {hidden}"
    print("PASS criterion 10: appendix boundary cells 16/16/8/8/4/4/2 reproduced")
