"""The streaming scan's mergeable sketches.

The coordinator's whole memory story rests on two properties proved
here: merges are *exactly* order-independent and associative (integer
tallies + log-binned counts, so a restarted or re-sharded scan renders a
byte-identical summary), and quantile estimates stay inside the
documented relative-error bound for any merge shape.
"""

import itertools
import json
import pickle
import random

import pytest

from repro.wild.stream import METRICS, QuantileSketch, ScanSketch


def quantile_sketch(values, alpha=0.01):
    sketch = QuantileSketch(alpha=alpha)
    for value in values:
        sketch.add(value)
    return sketch


class _Probe:
    """The ProbeResult fields ScanSketch.observe_probe reads."""

    def __init__(self, vantage, day, cdn, iack, coalesced, rtt, delay, field):
        self.vantage = vantage
        self.day = day
        self.cdn = cdn
        self.iack_observed = iack
        self.coalesced = coalesced
        self.rtt_ms = rtt
        self.ack_to_sh_delay_ms = delay
        self.ack_delay_field_ms = field


def random_sketch(seed, probes=200):
    rng = random.Random(seed)
    sketch = ScanSketch()
    for _ in range(probes):
        cdn = rng.choice(["Akamai", "Cloudflare", None])
        sketch.observe_target(cdn)
        if cdn is None:
            continue
        sketch.observe_probe(
            _Probe(
                vantage=rng.choice(["Hamburg", "Sao Paulo"]),
                day=rng.randrange(2),
                cdn=type("C", (), {"value": cdn})(),
                iack=rng.random() < 0.5,
                coalesced=rng.random() < 0.2,
                rtt=rng.uniform(0.1, 400.0),
                delay=rng.choice([0.0, rng.uniform(0.0, 50.0)]),
                field=rng.uniform(0.0, 500.0),
            )
        )
        sketch.observe_domain_iack(cdn, rng.random() < 0.5)
    return sketch


# -- quantile sketch ----------------------------------------------------


def test_quantile_within_relative_error_bound():
    values = [1.5 ** (i % 37) + i * 0.01 for i in range(5000)]
    sketch = quantile_sketch(values, alpha=0.01)
    ordered = sorted(values)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        exact = ordered[round(q * (len(ordered) - 1))]
        assert abs(sketch.quantile(q) - exact) <= 0.011 * exact + 1e-9


def test_min_max_are_exact_and_clamp_quantiles():
    values = [3.7, 0.002, 812.5, 42.0]
    sketch = quantile_sketch(values)
    assert sketch.min == min(values)  # exact floats, not estimates
    assert sketch.max == max(values)
    assert min(values) <= sketch.quantile(0.0) <= max(values)
    assert sketch.quantile(1.0) == pytest.approx(max(values), rel=0.011)


def test_zero_values_are_exact():
    sketch = quantile_sketch([0.0] * 10 + [5.0])
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(0.0) == 0.0


def test_empty_and_singleton():
    empty = QuantileSketch()
    assert empty.count == 0
    assert empty.quantile(0.5) is None
    single = quantile_sketch([7.25])
    for q in (0.0, 0.5, 1.0):
        assert single.quantile(q) == pytest.approx(7.25, rel=0.011)


def test_merge_equals_bulk_add():
    a_values = [random.Random(1).uniform(0.01, 100) for _ in range(500)]
    b_values = [random.Random(2).uniform(0.01, 100) for _ in range(300)]
    merged = quantile_sketch(a_values)
    merged.merge(quantile_sketch(b_values))
    assert merged.to_dict() == quantile_sketch(a_values + b_values).to_dict()


def test_merge_rejects_alpha_mismatch():
    with pytest.raises(ValueError):
        QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))


# -- scan sketch merge algebra ------------------------------------------


def test_merge_is_order_independent_over_all_permutations():
    parts = [random_sketch(seed) for seed in range(4)]
    reference = None
    for permutation in itertools.permutations(range(4)):
        merged = ScanSketch.merged(parts[i] for i in permutation)
        doc = merged.to_dict()
        if reference is None:
            reference = doc
        assert doc == reference


def test_merge_is_associative():
    a, b, c = (random_sketch(seed) for seed in (10, 11, 12))
    left = ScanSketch.merged([ScanSketch.merged([a, b]), c])
    right = ScanSketch.merged([a, ScanSketch.merged([b, c])])
    assert left.to_dict() == right.to_dict()


def test_merge_with_empty_is_identity():
    sketch = random_sketch(5)
    merged = ScanSketch.merged([sketch, ScanSketch(), ScanSketch()])
    assert merged.to_dict() == sketch.to_dict()


def test_empty_sketch_summary_is_well_formed():
    summary = ScanSketch().summary()
    assert summary["targets"] == 0
    assert summary["cdns"] == {}
    for metric in METRICS:
        assert summary["metrics"][metric]["count"] == 0


def test_singleton_observation_summary():
    sketch = ScanSketch()
    sketch.observe_target("Akamai")
    sketch.observe_probe(
        _Probe("Hamburg", 0, type("C", (), {"value": "Akamai"})(), True, False, 12.5, 3.5, 16.0)
    )
    sketch.observe_domain_iack("Akamai", True)
    summary = sketch.summary()
    assert summary["cdns"]["Akamai"] == {
        "domains": 1,
        "iack_domains": 1,
        "share_pct": 100.0,
    }
    assert summary["metrics"]["rtt_ms"]["max"] == pytest.approx(12.5)


def test_deployment_shares_are_exact_divisions():
    sketch = random_sketch(7)
    for (vantage, day), shares in sketch.deployment_shares().items():
        for cdn, share in shares.items():
            domains = sketch.pass_domains[(vantage, day, cdn)]
            iack = sketch.pass_iack.get((vantage, day, cdn), 0)
            assert share == iack / domains  # the bit-identical division


def test_roundtrips_are_lossless():
    sketch = random_sketch(9)
    assert ScanSketch.from_dict(sketch.to_dict()).to_dict() == sketch.to_dict()
    assert pickle.loads(pickle.dumps(sketch)).to_dict() == sketch.to_dict()
    json.dumps(sketch.to_dict())  # the wire form must be pure JSON


def test_merge_rejects_version_and_alpha_mismatch():
    other = ScanSketch()
    other.version = 999
    with pytest.raises(ValueError):
        ScanSketch().merge(other)
    with pytest.raises(ValueError):
        ScanSketch().merge(ScanSketch(alpha=0.5))
