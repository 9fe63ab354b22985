"""Tests for loss patterns."""

import pytest

from repro.sim.loss import (
    CompositeLoss,
    GilbertElliottLoss,
    IndexedLoss,
    NoLoss,
    RandomLoss,
)


def test_no_loss_never_drops():
    pattern = NoLoss()
    assert not any(pattern.should_drop(i, 1200) for i in range(1, 100))


def test_indexed_loss_drops_exactly_listed_indices():
    pattern = IndexedLoss({2, 3})
    dropped = [i for i in range(1, 10) if pattern.should_drop(i, 1200)]
    assert dropped == [2, 3]


def test_indexed_loss_rejects_zero_index():
    with pytest.raises(ValueError):
        IndexedLoss({0, 2})


def test_random_loss_rate_bounds():
    with pytest.raises(ValueError):
        RandomLoss(1.5)
    with pytest.raises(ValueError):
        RandomLoss(-0.1)


def test_random_loss_is_deterministic_and_resettable():
    pattern = RandomLoss(0.5, seed=7)
    first = [pattern.should_drop(i, 100) for i in range(1, 50)]
    pattern.reset()
    second = [pattern.should_drop(i, 100) for i in range(1, 50)]
    assert first == second
    assert any(first) and not all(first)


def test_random_loss_extremes():
    assert not any(RandomLoss(0.0).should_drop(i, 1) for i in range(1, 100))
    assert all(RandomLoss(1.0).should_drop(i, 1) for i in range(1, 100))


def test_loss_patterns_repr_as_their_constructor():
    assert repr(NoLoss()) == "NoLoss()"
    assert repr(RandomLoss(0.25, seed=3)) == "RandomLoss(rate=0.25, seed=3)"
    composite = CompositeLoss([IndexedLoss({2, 1}), NoLoss()])
    assert repr(composite) == "CompositeLoss([IndexedLoss([1, 2]), NoLoss()])"


def test_composite_loss_reset_resets_its_members():
    pattern = CompositeLoss([RandomLoss(0.5, seed=4), IndexedLoss({1})])
    first = [pattern.should_drop(i, 1) for i in range(1, 50)]
    pattern.reset()
    assert [pattern.should_drop(i, 1) for i in range(1, 50)] == first


def test_composite_loss_unions_patterns():
    pattern = CompositeLoss([IndexedLoss({1}), IndexedLoss({4})])
    dropped = [i for i in range(1, 6) if pattern.should_drop(i, 1)]
    assert dropped == [1, 4]


def test_gilbert_elliott_parameter_bounds():
    for bad in (
        {"p": 1.5, "r": 0.5},
        {"p": 0.5, "r": -0.1},
        {"p": 0.5, "r": 0.5, "h": 2.0},
    ):
        with pytest.raises(ValueError):
            GilbertElliottLoss(**bad)


def test_gilbert_elliott_is_deterministic_after_reset():
    pattern = GilbertElliottLoss(p=0.2, r=0.5, h=0.25, seed=11)
    first = [pattern.should_drop(i, 1200) for i in range(1, 200)]
    pattern.reset()
    second = [pattern.should_drop(i, 1200) for i in range(1, 200)]
    assert first == second
    assert any(first) and not all(first)


def test_gilbert_elliott_extremes():
    # p=0: never leaves the good state — lossless.
    never_bad = GilbertElliottLoss(p=0.0, r=0.5)
    assert not any(never_bad.should_drop(i, 1) for i in range(1, 200))
    # p=1, r=0, h=0: enters the bad state after datagram 1 and stays.
    always_bad = GilbertElliottLoss(p=1.0, r=0.0, h=0.0)
    verdicts = [always_bad.should_drop(i, 1) for i in range(1, 50)]
    assert verdicts[0] is False and all(verdicts[1:])
    # h=1: bad state still delivers everything.
    harmless = GilbertElliottLoss(p=1.0, r=0.0, h=1.0)
    assert not any(harmless.should_drop(i, 1) for i in range(1, 200))


def test_gilbert_elliott_bursts_have_expected_shape():
    pattern = GilbertElliottLoss(p=0.05, r=0.5, h=0.0, seed=3)
    verdicts = [pattern.should_drop(i, 1200) for i in range(1, 2001)]
    bursts = []
    run = 0
    for v in verdicts:
        if v:
            run += 1
        elif run:
            bursts.append(run)
            run = 0
    assert bursts, "expected at least one loss burst"
    # Mean burst length should be near 1/r = 2 (loose envelope).
    mean = sum(bursts) / len(bursts)
    assert 1.0 <= mean <= 4.0


def test_gilbert_elliott_repr_round_trip():
    ge = GilbertElliottLoss(0.05, 0.5, 0.25)
    # h is optional and defaults to the classic Gilbert model (h=0).
    classic = GilbertElliottLoss(0.1, 0.4)
    assert (classic.p, classic.r, classic.h) == (0.1, 0.4, 0.0)
    # repr round-trips through eval to an equivalent pattern.
    clone = eval(repr(ge))  # noqa: S307 - test-only round-trip
    assert isinstance(clone, GilbertElliottLoss)
    assert (clone.p, clone.r, clone.h, clone.seed) == (ge.p, ge.r, ge.h, ge.seed)
    drops_a = [ge.should_drop(i, 1) for i in range(1, 100)]
    drops_b = [clone.should_drop(i, 1) for i in range(1, 100)]
    assert drops_a == drops_b
