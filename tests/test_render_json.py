"""The one JSON renderer (:func:`repro.schema.render_json`).

Every bundle file and every document the daemon answers with is
``json.dumps(doc, indent=2)`` text; ``render_json`` must write exactly
those bytes, with the C encoder and without it, and a ``suite.json``
assembled from already rendered experiment texts must be the bytes of
rendering the whole report at once. What ``ExperimentResult.to_dict``
hands the renderer is :func:`~repro.experiments.common.jsonable` of its
fields: the document a JSON round trip of them would give.
"""

import enum
import json
import math
import threading
from contextlib import contextmanager
from fractions import Fraction
from pathlib import PurePosixPath

import pytest
from hypothesis import given, settings, strategies as st

import repro.schema as schema
from repro.api import LocalConfig, RunRequest, Session
from repro.api.bundles import bundle_files
from repro.experiments.common import jsonable
from repro.experiments.registry import REGISTRY
from repro.quic.server import ServerMode
from repro.schema import JsonText, render_json

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),  # beyond 64 bits
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300]),
    st.text(),  # non-ASCII, control characters, surrogates
    st.sampled_from(["", "a\nb", "\n", 'q"\\', "é日本 "]),
)
KEYS = st.one_of(
    st.text(),
    st.sampled_from(["", "\n", "é"]),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
)
DOCS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


def deep(depth):
    doc = [1, {"a": [], "b": {}}]
    for level in range(depth):
        doc = {"level": level, "inner": [doc, "x\ny"]} if level % 2 else [doc, {}, []]
    return doc


@contextmanager
def path(name):
    """Render on one of the three paths: ``recursion`` (3.11 / 3.12,
    flat containers through the C encoder), ``fallback`` (the same
    without the C encoder) or ``stdlib`` (3.13 on, every container
    without a JsonText through ``json.dumps``)."""
    saved = schema.c_make_encoder, schema._STDLIB_INDENTS_IN_C
    schema._STDLIB_INDENTS_IN_C = name == "stdlib"
    if name == "fallback":
        schema.c_make_encoder = None
    try:
        yield
    finally:
        schema.c_make_encoder, schema._STDLIB_INDENTS_IN_C = saved


PATHS = ["recursion", "fallback", "stdlib"]


@pytest.mark.parametrize("name", PATHS)
@settings(max_examples=300, deadline=None)
@given(doc=DOCS)
def test_render_json_is_json_dumps_indent_2(name, doc):
    with path(name):
        assert render_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("name", PATHS)
def test_deep_nesting_and_empty_containers(name):
    with path(name):
        for doc in (deep(40), [], {}, [[]], [{}], {"": {}}, [[[]], [{}], []]):
            assert render_json(doc) == json.dumps(doc, indent=2)


def test_flat_encoders_built_on_several_threads_indent_for_their_depth():
    """The per-depth C encoders are built on first use; threads that
    first reach the same depths at once must each get that depth's."""
    docs = [deep(depth) for depth in range(6)]
    start = threading.Barrier(4)
    wrong = []

    def render():
        start.wait(timeout=30)
        for doc in docs:
            if render_json(doc) != json.dumps(doc, indent=2):
                wrong.append(doc)

    with path("recursion"):
        schema._flat.cache_clear()
        threads = [threading.Thread(target=render) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    for depth in range(8):
        assert "".join(schema._flat(depth)([1, 2], 0)) == "[1,\n" + "  " * depth + "2]"


def nest(value, depth):
    for _ in range(depth):
        value = {"k": [0, value]}
    return value


@pytest.mark.parametrize("name", PATHS)
@settings(max_examples=150, deadline=None)
@given(doc=DOCS, depth=st.integers(0, 3))
def test_rendered_text_splices_in_at_any_depth(name, doc, depth):
    """A value nested at depth k is its standalone rendering with 2k
    spaces after every newline."""
    with path(name):
        spliced = nest(JsonText(render_json(doc)), depth)
        assert render_json(spliced) == json.dumps(nest(doc, depth), indent=2)


def test_what_json_dumps_rejects_raises_what_json_dumps_raises():
    cyclic = []
    cyclic.append(cyclic)
    rejected = (({"k": object()}, TypeError), ({(1, 2): 3}, TypeError), (cyclic, ValueError))
    for name in PATHS:
        for doc, error in rejected:
            with pytest.raises(error):
                json.dumps(doc, indent=2)
            with path(name), pytest.raises(error):
                render_json(doc)


class Level(enum.IntEnum):
    LOW = 1


class Tag(str, enum.Enum):
    A = "a"


#: What json writes as its base value (subclasses of int, str, float)
#: or only through ``default`` (the rest).
ODD = st.sampled_from(
    [Level.LOW, Tag.A, ServerMode.IACK, PurePosixPath("a/b"), Fraction(1, 3), 1 + 2j, object()]
)
ODD_DOCS = st.recursive(
    st.one_of(SCALARS, ODD),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.one_of(KEYS, st.sampled_from([Level.LOW, Tag.A])), children, max_size=5),
        st.dictionaries(st.tuples(st.integers()), children, min_size=1, max_size=2),
    ),
    max_leaves=30,
)


def same(a, b):
    """``a == b`` down to types, key order, NaN and the sign of zero."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) is float:
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1, a) == math.copysign(1, b)
        )
    return a == b


@settings(max_examples=400, deadline=None)
@given(doc=ODD_DOCS)
def test_jsonable_is_the_json_round_trip(doc):
    for default in (None, str):
        try:
            expected = json.loads(json.dumps(doc, default=default))
        except TypeError:
            with pytest.raises(TypeError):
                jsonable(doc, default)
        else:
            assert same(jsonable(doc, default), expected)


@pytest.fixture(scope="session")
def smoke_report():
    """One smoke run of every registered experiment."""
    with Session(LocalConfig(workers=0)) as session:
        return session.run(RunRequest([spec.id for spec in REGISTRY.specs()], smoke=True))


def test_every_bundle_file_is_the_stdlib_rendering(smoke_report):
    files = bundle_files(smoke_report)
    assert files["suite.json"] == json.dumps(smoke_report.to_dict(), indent=2) + "\n"
    for exp_id, result in smoke_report.results.items():
        assert files[f"{exp_id}.json"] == json.dumps(result.to_dict(), indent=2) + "\n"
        assert result.to_json() + "\n" == files[f"{exp_id}.json"]
    assert len(files) == len(REGISTRY.specs()) + 1
