"""``scripts/reach.py --check`` on a fixture package, and the format of
the committed allow-list.

The checker fails on a function no path enters that is not listed, on
a listed function a path now enters, and on a listed name that no
longer exists; a listed unreached function passes."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("reach_script", ROOT / "scripts" / "reach.py")
reach = sys.modules["reach_script"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

FIXTURE = '''
def used():
    return helper()


def helper():
    return 1


def dead():
    return 2


def also_dead():
    return 3


def interface():
    raise NotImplementedError


class Box:
    def opened(self):
        return True

    def closed(self):
        return False
'''


@pytest.fixture()
def traced(tmp_path, monkeypatch):
    """The fixture package traced over a path that calls ``used()``
    and ``Box().opened()``."""
    package = tmp_path / "src" / "fixturepkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("")
    monkeypatch.syspath_prepend(str(tmp_path / "src"))
    tracer = reach.Tracer(reach.Inventory.scan(tmp_path / "src", "fixturepkg"))
    with tracer.active():
        from fixturepkg import mod

        mod.used()
        mod.Box().opened()
    sys.modules.pop("fixturepkg.mod", None)
    sys.modules.pop("fixturepkg", None)
    return tmp_path, tracer


def problems(traced, allow_list):
    root, tracer = traced
    path = root / "allowed.txt"
    path.write_text(allow_list)
    allowed, errors = reach.read_allowed(path)
    defined = set(tracer.inventory.functions.values())
    return errors + reach.check(tracer.unreached(), defined, allowed, root)


def test_the_tracer_sees_what_ran_and_skips_interface_stubs(traced):
    _, tracer = traced
    assert [key for key, _ in tracer.unreached()] == [
        "fixturepkg.mod:Box.closed",
        "fixturepkg.mod:also_dead",
        "fixturepkg.mod:dead",
    ]
    run, total = tracer.reach()["mod"]
    assert 0 < run < total


LISTED = (
    "fixturepkg.mod:Box.closed | the other state | tests/test_mod.py\n"
    "fixturepkg.mod:also_dead | kept for a reason | tests/test_mod.py::test_it\n"
    "fixturepkg.mod:dead | kept for a reason | tests/test_mod.py  # comment\n"
)


def test_every_unreached_function_listed_passes(traced):
    assert problems(traced, "# header\n\n" + LISTED) == []


def test_an_unlisted_unreached_function_fails(traced):
    found = problems(traced, LISTED.replace("fixturepkg.mod:dead |", "# fixturepkg.mod:dead |"))
    assert len(found) == 1 and found[0].startswith("fixturepkg.mod:dead: no product path")


def test_a_listed_function_that_a_path_now_enters_fails(traced):
    found = problems(traced, LISTED + "fixturepkg.mod:helper | stale | tests/test_mod.py\n")
    assert found == ["fixturepkg.mod:helper: listed on line 4 but a product path now enters it"]


def test_a_listed_name_that_no_longer_exists_fails(traced):
    found = problems(traced, LISTED + "fixturepkg.mod:gone | stale | tests/test_mod.py\n")
    assert found == ["fixturepkg.mod:gone: listed on line 4 but no longer exists"]


def test_an_entry_without_a_reason_or_an_existing_test_fails(traced):
    found = problems(
        traced,
        LISTED.replace("the other state | tests/test_mod.py", "| tests/test_mod.py")
        .replace("tests/test_mod.py::test_it", "tests/test_gone.py::test_it"),
    )
    assert len(found) == 3
    assert "expected 'NAME | REASON | TEST'" in found[0]
    assert found[1].startswith("fixturepkg.mod:Box.closed: no product path")
    assert "tests/test_gone.py does not exist" in found[2]


def test_the_committed_allow_list_is_well_formed():
    allowed, errors = reach.read_allowed(ROOT / "scripts" / "reach_allowed.txt")
    assert errors == []
    inventory = reach.Inventory.scan(ROOT / "src", "repro")
    defined = set(inventory.functions.values())
    assert sorted(set(allowed) - defined) == []
    assert sorted(set(allowed) & inventory.stubs) == []
    for entry in allowed.values():
        assert (ROOT / entry.entered_by.split("::", 1)[0]).exists(), entry
