"""Training loop behavior, negative sampling, and the recall task."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from longmem.errors import DomainError, TrainingDivergedError
from longmem.evornn import (
    TrainConfig,
    build_model,
    lag_distribution,
    task_lag_recall,
    train_toy,
)
from longmem.evornn.train import batch_arrays, sample_negatives
from longmem.schedule import CellSchedule, constant_schedule, cost_multiply_adds


def tiny_model(horizon=0, seed=0):
    return build_model(
        vocab_size=8,
        emb_dim=4,
        schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=4,
        horizon=horizon,
        seed=seed,
    )


def constant_task():
    item = ([1, 2, 3, 4, 5], [3])
    return itertools.repeat(item)


def test_zero_learning_rate_keeps_loss_constant():
    config = TrainConfig(learning_rate=0.0, negatives=7, steps=8, batch_size=2, seed=0)
    result = train_toy(tiny_model(), constant_task(), config)
    losses = [m.loss for m in result.history]
    assert len(set(losses)) == 1


def test_training_reduces_loss_on_constant_batch():
    config = TrainConfig(learning_rate=0.5, negatives=7, steps=60, batch_size=2, seed=0)
    result = train_toy(tiny_model(), constant_task(), config)
    assert result.final_loss < result.history[0].loss * 0.5


def test_instrumented_counter_equals_three_times_cost():
    model = tiny_model()
    config = TrainConfig(learning_rate=0.1, negatives=7, steps=3, batch_size=2, seed=0)
    result = train_toy(model, constant_task(), config)
    expected = 3 * cost_multiply_adds(CellSchedule(((3, 2), (2, 4))))
    assert all(m.multiply_adds == expected for m in result.history)


def test_training_is_deterministic():
    config = TrainConfig(learning_rate=0.3, negatives=3, steps=10, batch_size=4, seed=5)
    r1 = train_toy(tiny_model(seed=2), task_lag_recall(8, 5, seed=1), config)
    r2 = train_toy(tiny_model(seed=2), task_lag_recall(8, 5, seed=1), config)
    assert [m.loss for m in r1.history] == [m.loss for m in r2.history]


@pytest.mark.parametrize(
    "tensor",
    [lambda model: model.output_table, lambda model: model.layers[0].cells[1].w_candidate],
    ids=["output-table", "cell"],
)
def test_divergence_aborts_with_step_index(tensor):
    model = tiny_model()
    tensor(model)[:] = np.nan  # forces a non-finite score immediately
    config = TrainConfig(learning_rate=0.1, negatives=7, steps=5, batch_size=1, seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        train_toy(model, constant_task(), config)
    assert exc.value.step == 0


def test_train_result_empty_history():
    from longmem.evornn.train import TrainResult

    empty = TrainResult()
    assert math.isnan(empty.final_loss)


def test_train_config_validation():
    for learning_rate in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=learning_rate)
    for clip_norm in (0.0, math.nan):
        with pytest.raises(DomainError):
            TrainConfig(clip_norm=clip_norm)
    with pytest.raises(DomainError):
        TrainConfig(steps=-1)
    with pytest.raises(DomainError):
        TrainConfig(batch_size=0)
    TrainConfig(steps=0)  # a zero-step run is a legal no-op
    with pytest.raises(DomainError):
        TrainConfig(negatives=0)


def test_more_negatives_than_non_label_ids_raise():
    # V=8 leaves 7 non-label ids: 50 negatives cannot be drawn, nor trained as a full softmax
    config = TrainConfig(negatives=50, steps=1, batch_size=2)
    with pytest.raises(DomainError, match="cannot draw 50 negatives from 7 non-label ids"):
        train_toy(tiny_model(), constant_task(), config)


def test_batch_arrays_without_horizon():
    batch = [([1, 2, 3], [7]), ([4, 5, 6], [0])]
    ids, labels = batch_arrays(batch, horizon=0)
    assert ids.shape == (2, 3)
    assert np.array_equal(labels, [[7], [0]])


def test_batch_arrays_appends_teacher_forced_labels():
    batch = [([1, 2, 3], [7, 4, 2])]
    ids, labels = batch_arrays(batch, horizon=2)
    # the observed prefix is extended with all labels but the last
    assert ids.shape == (1, 5)
    assert ids[0].tolist() == [1, 2, 3, 7, 4]
    assert np.array_equal(labels, [[7, 4, 2]])


def test_batch_arrays_validates_label_count():
    short = [([1, 2, 3], [7])]
    ragged = [([1, 2, 3], [7, 4, 2]), ([4, 5, 6], [0, 1])]
    for batch in (short, ragged):
        with pytest.raises(DomainError):
            batch_arrays(batch, horizon=2)


def test_batch_arrays_validates_equal_lengths():
    batch = [([1, 2], [0]), ([1, 2, 3], [0])]
    with pytest.raises(DomainError):
        batch_arrays(batch, horizon=0)


@settings(max_examples=60)
@given(st.integers(0, 2**31), st.integers(2, 12), st.data())
def test_sample_negatives_contract(seed, vocab, data):
    count = data.draw(st.integers(1, vocab - 1))
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, vocab, size=(3, 2))
    negatives = sample_negatives(np.random.default_rng(seed), labels, vocab, count)
    assert negatives.shape == (3, 2, count)
    for b in range(3):
        for j in range(2):
            drawn = negatives[b, j]
            assert len(set(drawn.tolist())) == count  # no replacement
            assert labels[b, j] not in drawn
            assert np.all((0 <= drawn) & (drawn < vocab))


@settings(max_examples=60)
@given(st.integers(0, 2**31), st.sampled_from([2, 3, 8, 17, 64, 1024]), st.data())
def test_sample_negatives_equal_the_full_argsort(seed, vocab, data):
    count = data.draw(st.sampled_from(sorted({1, min(5, vocab - 1), vocab // 2 or 1, vocab - 1})))
    labels = np.random.default_rng(seed + 1).integers(0, vocab, size=(2, 3))
    keys = np.random.default_rng(seed).random((2, 3, vocab - 1))
    order = np.argsort(keys, axis=-1)[..., :count]
    expected = order + (order >= labels[..., None])
    got = sample_negatives(np.random.default_rng(seed), labels, vocab, count)
    assert np.array_equal(got, expected)


def test_sample_negatives_full_complement():
    labels = np.array([[3]])
    negatives = sample_negatives(np.random.default_rng(0), labels, 8, 7)
    assert sorted(negatives[0, 0].tolist()) == [0, 1, 2, 4, 5, 6, 7]


def test_lag_distribution_properties():
    probs = lag_distribution(8, 2.0)
    assert probs.shape == (7,)
    assert np.isclose(probs.sum(), 1.0, atol=1e-12)
    assert np.all(np.diff(probs) < 0)  # heavier mass on recent symbols
    assert np.isclose(probs[0] / probs[1], 4.0, atol=1e-12)  # (2/1)^2


def test_lag_distribution_infinite_exponent_collapses_to_lag_one():
    probs = lag_distribution(8, float("inf"))
    assert probs[0] == 1.0
    assert np.all(probs[1:] == 0.0)


def test_lag_distribution_zero_exponent_is_uniform():
    probs = lag_distribution(5, 0.0)
    assert np.allclose(probs, 0.25)


def test_task_lag_recall_labels_come_from_sequence():
    stream = task_lag_recall(vocab_size=16, seq_len=12, tail_exponent=2.0, seed=3)
    for seq, labels in itertools.islice(stream, 50):
        assert len(seq) == 12
        assert len(labels) == 1
        assert labels[0] in seq
        assert all(0 <= i < 16 for i in seq)


def test_task_lag_recall_horizon_yields_more_labels():
    stream = task_lag_recall(vocab_size=8, seq_len=6, seed=0, horizon=2)
    seq, labels = next(stream)
    assert len(labels) == 3
    assert all(l in seq for l in labels)


def test_task_lag_recall_deterministic():
    a = list(itertools.islice(task_lag_recall(8, 6, seed=4), 5))
    b = list(itertools.islice(task_lag_recall(8, 6, seed=4), 5))
    assert [(tuple(s), tuple(l)) for s, l in a] == [(tuple(s), tuple(l)) for s, l in b]


def test_task_lag_recall_infinite_exponent_recalls_last_symbol():
    stream = task_lag_recall(vocab_size=8, seq_len=6, tail_exponent=float("inf"), seed=2)
    for seq, labels in itertools.islice(stream, 30):
        assert labels[0] == seq[-1]


@pytest.mark.parametrize(
    "seq_len, exponent, horizon",
    [(2, 2.0, 0), (4, 2.0, 2), (12, 0.0, 1), (64, 1.5, 0), (67, 2.0, 3), (9, float("inf"), 2)],
)
def test_task_lag_recall_draws_equal_rng_choice(seq_len, exponent, horizon):
    probabilities = lag_distribution(seq_len, exponent)
    taus = np.arange(1, seq_len)
    rng = np.random.default_rng(13)
    stream = task_lag_recall(vocab_size=32, seq_len=seq_len, tail_exponent=exponent, seed=13, horizon=horizon)
    for ids, labels in itertools.islice(stream, 300):
        expected_ids = rng.integers(0, 32, size=seq_len)
        lags = rng.choice(taus, size=horizon + 1, p=probabilities)
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(labels, expected_ids[seq_len - lags])


def test_step_metrics_report_the_norm_before_clipping():
    def history(clip_norm):
        config = TrainConfig(learning_rate=0.5, negatives=7, steps=6, batch_size=2, clip_norm=clip_norm)
        return train_toy(tiny_model(), constant_task(), config).history

    clipped, loose = history(0.05), history(1e6)
    assert all(m.grad_norm > 0.05 and m.clipped for m in clipped)
    assert loose[0].grad_norm == clipped[0].grad_norm  # same model, same first batch
    assert not any(m.clipped for m in loose)


@pytest.mark.parametrize(
    "segments, vocab, num_layers, horizon, batch, negatives",
    [
        # `train-powerlaw` and `train-constant-sampled`
        (((32, 8), (16, 16), (8, 32), (4, 64), (4, 128)), 64, 1, 0, 64, 63),
        (((64, 128),), 1024, 2, 3, 32, 16),
    ],
)
def test_a_step_runs_without_the_last_steps_gradients(segments, vocab, num_layers, horizon, batch, negatives):
    schedule = CellSchedule(segments)

    def peak(steps):
        model = build_model(
            vocab_size=vocab, emb_dim=32, schedule=schedule, decoder_dim=32,
            horizon=horizon, num_layers=num_layers, seed=1,
        )
        task = task_lag_recall(
            vocab_size=vocab, seq_len=schedule.total_length, tail_exponent=2.0, seed=2, horizon=horizon
        )
        config = TrainConfig(learning_rate=1.0, negatives=negatives, steps=steps, batch_size=batch, seed=1)
        return traced_peak(lambda: train_toy(model, task, config))[1]

    assert peak(3) <= 1.02 * peak(1)


def test_task_lag_recall_lag_frequencies_follow_power_law():
    stream = task_lag_recall(vocab_size=64, seq_len=4, tail_exponent=2.0, seed=9)
    # with L=4 the lag support is {1,2,3} with probs proportional to 1, 1/4, 1/9
    counts = {1: 0, 2: 0, 3: 0}
    n = 3000
    for seq, labels in itertools.islice(stream, n):
        matches = [tau for tau in (1, 2, 3) if seq[4 - tau] == labels[0]]
        if len(matches) == 1:  # skip draws where the label is ambiguous
            counts[matches[0]] += 1
    total = sum(counts.values())
    expected = np.array([1.0, 0.25, 1.0 / 9.0])
    expected /= expected.sum()
    observed = np.array([counts[1], counts[2], counts[3]]) / total
    assert np.all(np.abs(observed - expected) < 0.05)
