"""Tests for CDN deployment models, vantage points, the prober, the
Cloudflare study, and the dissector."""

import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.interop import Runner, Scenario
from repro.quic.server import ServerMode
from repro.wild.asdb import Cdn
from repro.wild.cdn import DEPLOYMENTS, deployment_for
from repro.wild.cloudflare import (
    CloudflareLongitudinalStudy,
    diurnal_factor,
    filter_valid,
)
from repro.wild.dissector import dissect
from repro.wild.qscanner import ProbeResult, QScanner, deployment_share, reseed
from repro.wild.tranco import TrancoGenerator
from repro.wild.vantage import VANTAGE_POINTS, vantage


def test_deployments_cover_all_cdns():
    assert set(DEPLOYMENTS) == set(Cdn)


def test_table1_shares_encoded():
    assert deployment_for(Cdn.CLOUDFLARE).iack_share == pytest.approx(0.999)
    assert deployment_for(Cdn.FASTLY).iack_share == 0.0
    assert deployment_for(Cdn.META).iack_share == 0.0
    assert deployment_for(Cdn.MICROSOFT).iack_share == 0.0
    assert deployment_for(Cdn.AMAZON).share_variation == pytest.approx(0.18)


def test_backend_delay_median_is_calibrated():
    rng = random.Random(0)
    deployment = deployment_for(Cdn.CLOUDFLARE)
    samples = [deployment.sample_backend_delay_ms(rng) for _ in range(4000)]
    assert statistics.median(samples) == pytest.approx(3.2, rel=0.15)


def test_diurnal_scaling_increases_delay():
    rng_day = random.Random(1)
    rng_night = random.Random(1)
    deployment = deployment_for(Cdn.CLOUDFLARE)
    day = [deployment.sample_backend_delay_ms(rng_day, diurnal=1.0) for _ in range(500)]
    night = [deployment.sample_backend_delay_ms(rng_night, diurnal=0.0) for _ in range(500)]
    assert statistics.median(day) > statistics.median(night)


def test_ack_delay_field_regimes():
    rng = random.Random(0)
    cf = deployment_for(Cdn.CLOUDFLARE)
    coalesced = [cf.sample_ack_delay_field_ms(rng, 10.0, True) for _ in range(300)]
    assert sum(1 for v in coalesced if v > 10.0) / 300 > 0.95
    others = deployment_for(Cdn.OTHERS)
    iack = [others.sample_ack_delay_field_ms(rng, 10.0, False) for _ in range(300)]
    assert 0.6 < sum(1 for v in iack if v < 10.0) / 300 < 0.95


def test_vantage_points_match_paper_locations():
    assert set(VANTAGE_POINTS) == {"Hamburg", "Los Angeles", "Sao Paulo", "Hong Kong"}
    with pytest.raises(KeyError):
        vantage("Berlin")


def test_vantage_rtts_to_cdns_are_short():
    rng = random.Random(0)
    point = vantage("Sao Paulo")
    cdn_rtts = [point.sample_rtt_ms(Cdn.CLOUDFLARE, rng) for _ in range(500)]
    other_rtts = [point.sample_rtt_ms(Cdn.OTHERS, rng) for _ in range(500)]
    assert statistics.median(cdn_rtts) < statistics.median(other_rtts)


def test_prober_produces_consistent_results():
    generator = TrancoGenerator(list_size=5_000)
    scanner = QScanner(vantage("Sao Paulo"), seed=0)
    results = scanner.probe(generator.quic_domains())
    assert results
    for result in results[:200]:
        assert result.iack_observed != result.coalesced or not result.iack_observed
        if result.coalesced:
            assert result.ack_to_sh_delay_ms == 0.0
        if result.iack_observed:
            assert result.ack_to_sh_delay_ms > 0.0
    # Deterministic given the seed.
    again = scanner.probe(generator.quic_domains())
    assert [r.iack_observed for r in again] == [r.iack_observed for r in results]


@given(
    key=st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
    used=st.sampled_from(["random", "gauss", "normalvariate"]),
)
def test_reseed_starts_the_stream_random_random_starts(key, used):
    """A reseeded rng draws what a fresh ``random.Random(key)`` draws,
    whatever it drew before — a cached second ``gauss`` value included."""
    rng = random.Random("a stream already in use")
    if used == "random":
        rng.random()
    else:
        getattr(rng, used)(0.0, 1.0)
    reseed(rng, key)
    fresh = random.Random(key)

    def draws(r):
        return [
            r.random(),
            r.lognormvariate(2.0, 0.4),
            r.uniform(0.1, 0.9),
            r.gauss(0.0, 1.0),
            r.gauss(0.0, 1.0),
        ]

    assert draws(rng) == draws(fresh)
    assert rng.getstate() == fresh.getstate()


def reference_probes(domains, point, seed, day, batch):
    """A pass as the model methods state it: one ``random.Random`` per
    probe (or per pass for the batch engine), one per share bias."""
    stream = random.Random(f"probe-batch:{seed}:{point.name}:{day}")
    results = []
    for domain in domains:
        deployment = deployment_for(domain.cdn)
        rng = stream if batch else random.Random(f"probe:{seed}:{point.name}:{day}:{domain.name}")
        bias = random.Random(f"bias:{point.name}:{day}:{domain.cdn.value}").uniform(-1.0, 0.0)
        rtt = point.sample_rtt_ms(domain.cdn, rng)
        iack_enabled = deployment.sample_iack_enabled(rng, bias=bias)
        cached = deployment.sample_cert_cached(rng, popularity=domain.popularity)
        backend_delay = deployment.sample_backend_delay_ms(rng)
        coalesced = cached or not iack_enabled
        delay = 0.0 if coalesced else backend_delay
        field = deployment.sample_ack_delay_field_ms(rng, rtt, coalesced=coalesced)
        results.append(ProbeResult(
            domain.name, domain.rank, domain.address, domain.cdn, point.name, day,
            rtt, not coalesced, coalesced, delay, field,
        ))
    return results


@pytest.mark.parametrize("batch", [False, True], ids=["analytic", "batch"])
def test_a_pass_draws_what_the_model_methods_draw(batch):
    domains = TrancoGenerator(list_size=4_000, seed=2).quic_domains()
    point = vantage("Hong Kong")
    scanner = QScanner(point, seed=7)
    for day in (0, 1):
        probed = scanner.probe_batch(domains, day=day) if batch else scanner.probe(domains, day=day)
        assert probed == reference_probes(domains, point, 7, day, batch)
    assert scanner.probe_one(domains[3], day=1) == reference_probes(
        domains[3:4], point, 7, 1, batch=False
    )[0]


def test_deployment_share_matches_table1_direction():
    generator = TrancoGenerator(list_size=30_000)
    scanner = QScanner(vantage("Sao Paulo"), seed=0)
    shares = deployment_share(scanner.probe(generator.quic_domains()))
    assert shares[Cdn.CLOUDFLARE] > 0.95
    assert shares.get(Cdn.FASTLY, 0.0) == 0.0
    assert shares.get(Cdn.META, 0.0) == 0.0
    assert 0.0 < shares[Cdn.OTHERS] < 0.5


def test_prober_emulation_engine_agrees_with_analytic():
    """Cross-validation: the full-QUIC engine classifies IACK/WFC the
    same way the analytic engine does."""
    generator = TrancoGenerator(list_size=3_000)
    domains = [d for d in generator.quic_domains() if d.cdn in (Cdn.CLOUDFLARE, Cdn.META)][:8]
    emulated = QScanner(vantage("Hamburg"), seed=1, use_emulation=True)
    for domain in domains:
        result = emulated.probe_one(domain)
        if domain.cdn is Cdn.CLOUDFLARE:
            assert result.iack_observed or result.coalesced
        else:  # Meta: WFC only
            assert not result.iack_observed


def test_cloudflare_study_shapes():
    study = CloudflareLongitudinalStudy(vantage("Sao Paulo"), seed=0)
    samples = study.run(minutes=240)
    valid = filter_valid(samples)
    assert 0 < len(valid) <= len(samples)
    kinds = {s.kind for s in valid}
    assert {"SH", "ACK,SH"} <= kinds
    # Popular warm domain coalesces most of the time.
    discord = [s for s in valid if s.domain == "discord.com"]
    coalesced_share = sum(1 for s in discord if s.kind == "ACK,SH") / len(discord)
    assert coalesced_share > 0.7
    # Own slow domains almost always get a separate IACK.
    own = [s for s in valid if s.domain == "own-domain-00.example"]
    iack_share = sum(1 for s in own if s.kind == "SH") / len(own)
    assert iack_share > 0.9


def test_cloudflare_broken_sh_domains():
    study = CloudflareLongitudinalStudy(vantage("Sao Paulo"), seed=0)
    samples = study.run(minutes=60)
    udemy = [s for s in samples if s.domain == "udemy.com"]
    assert udemy
    assert all(s.kind == "ACK" and s.sh_latency_ms is None for s in udemy)


def test_cloudflare_outages_produce_gaps():
    study = CloudflareLongitudinalStudy(vantage("Hong Kong"), seed=0)
    samples = study.run(minutes=120, outage_minutes=range(30, 60))
    minutes = {s.minute for s in samples}
    assert not minutes & set(range(30, 60))
    assert 29 in minutes and 60 in minutes


def test_diurnal_factor_cycle():
    assert diurnal_factor(14 * 60) > 0.9   # afternoon peak
    assert diurnal_factor(2 * 60) < 0.1    # night trough


def test_dissector_on_emulated_traces():
    runner = Runner()
    wfc = runner.run_once(
        Scenario(client="quic-go", mode=ServerMode.WFC, rtt_ms=9.0), seed=1
    )
    dissected = dissect(wfc.tracer.filter(link="server->client"))
    assert dissected.coalesced_ack_sh
    assert not dissected.iack_observed
    assert dissected.ack_to_sh_delay_ms == 0.0
    iack = runner.run_once(
        Scenario(client="quic-go", mode=ServerMode.IACK, rtt_ms=9.0, delta_t_ms=5.0),
        seed=1,
    )
    dissected = dissect(iack.tracer.filter(link="server->client"))
    assert dissected.iack_observed
    assert not dissected.coalesced_ack_sh
    assert dissected.ack_to_sh_delay_ms > 0.0
