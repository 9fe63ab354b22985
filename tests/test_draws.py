"""Behavior draws of an endpoint constructed directly with one rng."""

import random

from repro.sim.draws import RngDraws


def test_rng_draws_take_every_draw_from_the_one_caller_stream():
    """Call order on the one stream is the draw order (table3's golden
    bundle pins it)."""
    rng = random.Random(7)
    draws = RngDraws(rng)
    reference = random.Random(7)
    assert draws.penalty_jitter(2.0) == reference.uniform(-2.0, 2.0)
    assert draws.crypto_jitter(3.0) == reference.uniform(0.0, 3.0)
    assert draws.second_flight_roll() == reference.random()
    assert draws.misinit_rng() is rng
