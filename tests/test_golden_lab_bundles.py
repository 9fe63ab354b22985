"""Golden-bundle regression for the recovery-lab sweeps.

``tests/golden/smoke-lab/`` holds the bundles of ``repro run lab_cc
lab_rtt lab_ge --smoke`` captured at the commit before the legacy run
paths were deleted. ``tests/golden/smoke/`` pins only the default
:class:`~repro.quic.profiles.RecoveryProfile`; these pin the
non-default ones (cubic, packet-only, time-only) and Gilbert-Elliott
loss, so deletions in the runtime cannot silently move the lab.
"""

from pathlib import Path

from repro.api import LocalConfig, RunRequest, Session, write_bundle

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "smoke-lab"
LAB_IDS = ("lab_cc", "lab_rtt", "lab_ge")


def test_lab_sweeps_reproduce_golden_bundles_locally(tmp_path):
    with Session(LocalConfig(workers=0)) as session:
        report = session.run(RunRequest(LAB_IDS, smoke=True))
    written = write_bundle(report, tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert sorted(p.name for p in written) == sorted(
        [f"{i}.json" for i in LAB_IDS] + ["suite.json"]
    )
    for path in written:
        assert path.read_bytes() == (GOLDEN_DIR / path.name).read_bytes(), (
            f"{path.name} diverged from the golden lab bundle"
        )
