"""Label flipping: rates, determinism, and plurality warnings."""

import hashlib
import warnings

import numpy as np
import pytest

from npcl.corruption import CorruptionSpec, corrupt_dataset
from npcl.data import Dataset, synth_blobs


def corrupt(labels, spec):
    """Corrupted labels and flip flags of a featureless dataset with these labels."""
    y = np.asarray(labels)
    noisy = corrupt_dataset(Dataset(np.zeros((y.size, 1)), y, spec.num_classes), spec)
    return noisy.labels, noisy.flip_flags


def test_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("typo", 0.1, 0, 10)
    with pytest.raises(ValueError):
        CorruptionSpec("symmetric", 1.5, 0, 10)
    with pytest.raises(ValueError):
        CorruptionSpec("pair", 0.1, 0, 1)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        CorruptionSpec("pair", 0.1, 1.5, 4)
    with pytest.raises(ValueError, match="corruption spec and dataset disagree on class count"):
        corrupt_dataset(Dataset(np.zeros((4, 1)), np.array([0, 1, 2, 0]), 3), CorruptionSpec("pair", 0.1, 0, 4))


@pytest.mark.parametrize("rate", [True, False, "0.1", None])
def test_rate_must_be_a_real_number(rate):
    # True once passed the range test as 1 and flipped every label
    with pytest.raises(ValueError, match=f"^rate must be a real number, got {rate!r}$"):
        CorruptionSpec("pair", rate, 0, 2)


def test_rate_takes_integers_and_numpy_floats():
    assert CorruptionSpec("pair", 0, 0, 2).rate == 0
    assert CorruptionSpec("pair", np.float32(0.25), 0, 2).rate == 0.25


def test_zero_rate_is_identity():
    y = np.arange(10) % 4
    for kind in ("symmetric", "pair"):
        out, flags = corrupt(y, CorruptionSpec(kind, 0.0, 3, 4))
        assert np.array_equal(out, y)
        assert not flags.any()


def test_symmetric_never_keeps_original():
    y = np.full(5000, 3)
    with pytest.warns(RuntimeWarning, match="plurality"):
        out, flags = corrupt(y, CorruptionSpec("symmetric", 1.0, 1, 10))
    assert flags.all()
    assert np.all(out != 3)
    assert np.all((out >= 0) & (out < 10))


def test_symmetric_rate_concentration():
    y = np.arange(10000) % 10
    out, flags = corrupt(y, CorruptionSpec("symmetric", 0.2, 11, 10))
    rate = flags.mean()
    assert abs(rate - 0.2) < 0.012  # 3 sigma for n=10000
    assert np.all(out[flags] != y[flags])
    assert np.array_equal(out[~flags], y[~flags])


def test_symmetric_targets_roughly_uniform():
    y = np.zeros(20000, dtype=np.int64)
    with pytest.warns(RuntimeWarning, match="plurality"):
        out, flags = corrupt(y, CorruptionSpec("symmetric", 1.0, 5, 5))
    counts = np.bincount(out, minlength=5)
    assert counts[0] == 0
    # each wrong class gets ~5000; 5 sigma band
    assert np.all(np.abs(counts[1:] - 5000) < 5 * np.sqrt(20000 * 0.25 * 0.75))


def test_pair_full_rate_is_cyclic_successor():
    y = np.arange(10000) % 10
    with pytest.warns(RuntimeWarning, match="plurality"):
        out, flags = corrupt(y, CorruptionSpec("pair", 1.0, 2, 10))
    assert flags.all()
    assert np.array_equal(out, (y + 1) % 10)


def test_pair_rate_concentration():
    y = np.arange(10000) % 10
    _, flags = corrupt(y, CorruptionSpec("pair", 0.35, 12, 10))
    assert abs(flags.mean() - 0.35) < 0.015


def test_same_seed_bit_identical():
    y = np.arange(1000) % 7
    spec = CorruptionSpec("symmetric", 0.3, 99, 7)
    a_out, a_flags = corrupt(y, spec)
    b_out, b_flags = corrupt(y, spec)
    assert np.array_equal(a_out, b_out)
    assert np.array_equal(a_flags, b_flags)


def test_different_seeds_differ():
    y = np.arange(1000) % 7
    a, _ = corrupt(y, CorruptionSpec("symmetric", 0.3, 1, 7))
    b, _ = corrupt(y, CorruptionSpec("symmetric", 0.3, 2, 7))
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("kind, digest", [
    ("symmetric", "bc29f20a04827cccfb960ce2cc733779619c27a28daa87712284d6f4f029810d"),
    ("pair", "6da05389e01616ddf9612801f98ec2f871ddef4702f37d694e9e02dac9e0bdea"),
])
def test_corrupted_label_digest(kind, digest):
    # recorded when each kind had its own flip function, before they became one draw
    y = np.arange(1000) % 7
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        h.update(corrupt(y, CorruptionSpec(kind, 0.3, seed, 7))[0].astype("<i8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kind, rate, k, warns", [
    ("symmetric", 0.9, 10, True),
    ("symmetric", 0.89, 10, False),
    ("symmetric", 0.5, 2, True),
    ("symmetric", 0.74, 4, False),
    ("pair", 0.5, 10, True),
    ("pair", 0.49, 10, False),
    ("pair", 1.0, 3, True),
])
def test_warns_when_no_clean_plurality_is_left(kind, rate, k, warns):
    # symmetric noise at rate >= (K-1)/K and pair noise at rate >= 0.5; the
    # warning leaves the draw alone
    y = np.arange(700) % k
    spec = CorruptionSpec(kind, rate, 4, k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out, flags = corrupt(y, spec)
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    if warns:
        assert len(messages) == 1
        assert all(word in messages[0] for word in (kind, f"rate {rate}", f"K = {k}"))
    else:
        assert messages == []
    rng = np.random.default_rng(4)
    want_flags = rng.random(y.size) < rate
    offsets = rng.integers(1, k, size=y.size) if kind == "symmetric" else 1
    assert np.array_equal(flags, want_flags)
    assert np.array_equal(out, np.where(want_flags, (y + offsets) % k, y))


def test_corrupt_dataset_keeps_clean_labels_and_features():
    ds = synth_blobs(200, 4, separation=4.0, noise_std=1.0, seed=0)
    spec = CorruptionSpec("symmetric", 0.4, 7, 4)
    noisy = corrupt_dataset(ds, spec)
    assert np.array_equal(noisy.features, ds.features)
    assert np.array_equal(noisy.clean_labels, ds.labels)
    assert noisy.flip_flags.any()
    assert np.array_equal(noisy.labels[~noisy.flip_flags], ds.labels[~noisy.flip_flags])
