"""Tests for the AS database and the synthetic Tranco list."""

import ipaddress
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wild.asdb import AsDatabase, CDN_AS_NUMBERS, Cdn, OTHERS_ASN
from repro.wild.cdn import DEPLOYMENTS
from repro.wild.tranco import TrancoDomain, TrancoGenerator

#: Inputs that are not a canonical dotted quad: IPv6, IPv4 outside
#: 10/8, and strings ``ipaddress`` rejects.
NON_CANONICAL = [
    "::1",
    "2001:db8::10:1:0:1",
    "::ffff:10.1.0.1",
    "192.0.2.1",
    "11.1.0.1",
    "10.255.0.1",
    "10.1.0",
    "10.1.0.1.5",
    "010.1.0.1",
    "10.01.0.1",
    "10.1.0.256",
    " 10.1.0.1",
    "10.1.0.1\n",
    "10.1.0.+1",
    "10.1.0.\u0661",
    "",
    "not an address",
]


def reference_origin_asn(asdb, address):
    """The lookup as ``ipaddress`` objects state it: the AS whose /16
    network contains the address."""
    ip = ipaddress.ip_address(address)
    for asn in {a for asns in CDN_AS_NUMBERS.values() for a in asns} | {OTHERS_ASN}:
        if ip in asdb.prefix_for_asn(asn):
            return asn
    return None


def outcome(lookup, address):
    try:
        return lookup(address)
    except ValueError:
        return ValueError


def test_table5_as_numbers():
    assert CDN_AS_NUMBERS[Cdn.AKAMAI] == (16625, 20940)
    assert CDN_AS_NUMBERS[Cdn.CLOUDFLARE] == (13335, 209242)
    assert CDN_AS_NUMBERS[Cdn.FASTLY] == (54113,)
    assert CDN_AS_NUMBERS[Cdn.MICROSOFT] == (8075,)


def test_address_roundtrip_for_every_cdn():
    asdb = AsDatabase()
    for cdn, asns in CDN_AS_NUMBERS.items():
        for asn in asns:
            address = asdb.address_in_asn(asn, 5)
            assert asdb.origin_asn(address) == asn
            assert asdb.cdn_for_address(address) is cdn


def test_others_asn_maps_to_others():
    asdb = AsDatabase()
    address = asdb.address_in_asn(OTHERS_ASN, 0)
    assert asdb.cdn_for_address(address) is Cdn.OTHERS


def test_non_synthetic_address_falls_back_to_others():
    asdb = AsDatabase()
    assert asdb.origin_asn("192.0.2.1") is None
    assert asdb.cdn_for_address("192.0.2.1") is Cdn.OTHERS


@pytest.mark.parametrize("address", NON_CANONICAL)
def test_lookup_of_non_canonical_input_matches_ipaddress(address):
    asdb = AsDatabase()
    expected = outcome(lambda a: reference_origin_asn(asdb, a), address)
    assert outcome(asdb.origin_asn, address) == expected
    if expected is ValueError:
        with pytest.raises(ValueError):
            asdb.cdn_for_address(address)
    elif expected is None:
        assert asdb.cdn_for_address(address) is Cdn.OTHERS


@given(
    octets=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=300).map(str),
            st.sampled_from(["10", "0", "00", "01", "010", "255", "1_0", "+1", "-1", ""]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_lookup_of_any_dotted_string_matches_ipaddress(octets):
    asdb = AsDatabase()
    address = ".".join(octets)
    assert outcome(asdb.origin_asn, address) == outcome(
        lambda a: reference_origin_asn(asdb, a), address
    )


@given(
    asn=st.sampled_from(sorted({a for asns in CDN_AS_NUMBERS.values() for a in asns})),
    host_index=st.integers(min_value=-(1 << 20), max_value=1 << 20),
)
def test_addresses_are_the_ones_ipaddress_builds(asn, host_index):
    asdb = AsDatabase()
    network = asdb.prefix_for_asn(asn)
    expected = ipaddress.ip_address(
        int(network.network_address) + 1 + (host_index % (network.num_addresses - 2))
    )
    address = asdb.address_in_asn(asn, host_index)
    assert address == str(expected)
    assert asdb.origin_asn(address) == asn


def module_state_sizes():
    """The size of every container held at module level in repro.wild."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.wild"):
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_no_module_state_grows_across_shards():
    """A worker's memory follows the shard, not the scan: probing more
    targets leaves nothing behind at module level."""
    from repro.runtime.artifacts import ArtifactLevel
    from repro.wild.stream.shard import ShardProbeTask

    def shard(start):
        ShardProbeTask(
            source_spec={"kind": "synthetic", "count": 4000, "seed": 5},
            start=start,
            stop=start + 1000,
            shard_index=start // 1000,
            vantage_names=("Hamburg",),
            days=1,
            probe_seed=0,
        ).execute_task(0, ArtifactLevel.STATS)

    shard(0)
    before = module_state_sizes()
    for start in (1000, 2000, 3000):
        shard(start)
    assert module_state_sizes() == before


def test_unknown_asn_raises():
    with pytest.raises(KeyError):
        AsDatabase().prefix_for_asn(64512)


def test_generator_scales_counts_to_list_size():
    generator = TrancoGenerator(list_size=100_000)
    # Cloudflare: 247407 per 1M -> ~24741 per 100k.
    assert generator.scaled_count(Cdn.CLOUDFLARE) == pytest.approx(24741, abs=1)
    assert generator.scaled_count(Cdn.MICROSOFT) >= 1


def test_generator_is_deterministic():
    a = list(TrancoGenerator(list_size=2000, seed=1).iter_domains())
    b = list(TrancoGenerator(list_size=2000, seed=1).iter_domains())
    assert [(d.name, d.cdn) for d in a] == [(d.name, d.cdn) for d in b]
    c = list(TrancoGenerator(list_size=2000, seed=2).iter_domains())
    assert [(d.name, d.cdn) for d in a] != [(d.name, d.cdn) for d in c]


def test_quic_domains_have_addresses_and_match_counts():
    generator = TrancoGenerator(list_size=50_000)
    quic_domains = generator.quic_domains()
    assert all(d.address is not None for d in quic_domains)
    assert len(quic_domains) == sum(generator.scaled_count(cdn) for cdn in Cdn)
    share = len(quic_domains) / 50_000
    paper_share = sum(d.domains for d in DEPLOYMENTS.values()) / 1_000_000
    assert share == pytest.approx(paper_share, rel=0.05)


@pytest.mark.parametrize("seed", [20240806, 3])
@pytest.mark.parametrize("size", [1, 2, 7, 1_000, 20_000])
def test_quic_domains_walked_back_equal_the_forward_scan(size, seed):
    generator = TrancoGenerator(list_size=size, seed=seed)
    forward = [d for d in generator.iter_domains() if d.answers_quic]
    assert generator.quic_domains() == forward
    permute = generator._permute
    assert [permute.inverse(permute(value)) for value in range(size)] == list(range(size))


def test_cdn_inference_matches_assignment():
    generator = TrancoGenerator(list_size=20_000)
    asdb = generator.asdb
    for domain in generator.quic_domains()[:500]:
        assert asdb.cdn_for_address(domain.address) is domain.cdn


def test_popularity_decreases_with_rank():
    top = TrancoDomain(rank=1, name="a", cdn=None, address=None)
    mid = TrancoDomain(rank=1000, name="b", cdn=None, address=None)
    tail = TrancoDomain(rank=999_999, name="c", cdn=None, address=None)
    assert top.popularity == 1.0
    assert top.popularity > mid.popularity > tail.popularity


def test_invalid_list_size():
    with pytest.raises(ValueError):
        TrancoGenerator(list_size=0)
