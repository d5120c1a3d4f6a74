"""scripts/op_digest.py: the transition report between two ledgers, a
round trip's frame_deviation in the ledger, the hash of the files an
operation writes, and the hash of an analysis's frame."""

import hashlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from jacobi.matcurve import SampleGrid, preset_curve
from jacobi.pipeline import analyze
from jacobi.reconstruct import RoundtripReport

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_digest.py"


def load_op_digest():
    spec = importlib.util.spec_from_file_location("op_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OP_DIGEST = load_op_digest()


def line(op, ok=True, error=None, sha="0" * 16, k_dev=None):
    return {"seed": 1, "workload": "w", "op": op, "class": f"c{op}",
            "ok": ok, "error": error, "k_err": None, "k_dev": k_dev,
            "sha256": sha}


def counts(report):
    """The numbers of the summary line, in order."""
    return [int(part.rsplit(" ", 1)[1]) for part in report[-1].split(", ")]


def test_a_ledger_against_itself_reports_zeros():
    ledger = [line(0), line(1, ok=False, error="check")]
    assert OP_DIGEST.transitions(ledger, ledger) == [
        "transitions 0, fail -> fail error-type changes 0, sha256 changed "
        "with no transition or type change 0, unmatched ops 0"]


def test_each_kind_of_move_is_counted_once():
    old = [line(0), line(1, ok=False, error="InflectionPoint"),
           line(2, ok=False, error="InflectionPoint"), line(3),
           line(4), line(5, k_dev=1e-9)]
    new = [line(0, ok=False, error="check"),  # pass -> fail
           line(1),  # fail -> pass
           line(2, ok=False, error="NormalizationViolation"),
           line(3, sha="1" * 16),  # quiet
           line(5, k_dev=3e-9),
           line(6)]  # unmatched, and op 4 too
    report = OP_DIGEST.transitions(old, new)
    assert "c0: pass -> fail 1: seed 1 w op 0 (check)" in report
    assert "c1: fail -> pass 1: seed 1 w op 1 (was InflectionPoint)" in report
    # a type change on an op failing at both trees has its own line and
    # is not a transition
    assert ("c2: fail -> fail error type 1: seed 1 w op 2 "
            "(InflectionPoint -> NormalizationViolation)") in report
    assert "c5: largest k_dev change 2.000e-09 (seed 1 w op 5)" in report
    assert counts(report) == [2, 1, 1, 2]


def test_frame_deviation_changes_are_reported_and_old_ledgers_read_none():
    old = [line(0), line(1), line(2)]
    old[0]["frame_deviation"] = 1e-9
    old[1]["frame_deviation"] = None
    # op 2's line predates the field
    new = [line(0), line(1), line(2)]
    new[0]["frame_deviation"] = 4e-9
    new[1]["frame_deviation"] = 2e-9
    new[2]["frame_deviation"] = 5e-9
    report = OP_DIGEST.transitions(old, new)
    assert report[:-1] == [
        "c0: largest frame_deviation change 3.000e-09 (seed 1 w op 0)"]
    assert counts(report) == [0, 0, 0, 0]
    # a ledger without the field against one with it, either way round
    bare = [line(0)]
    assert counts(OP_DIGEST.transitions(bare, new[:1])) == [0, 0, 0, 0]
    assert OP_DIGEST.transitions(new[:1], bare)[:-1] == []


def test_a_roundtrip_op_writes_its_frame_deviation(monkeypatch):
    report = RoundtripReport(
        equivalent=True, sign_pattern=None, k_deviation=0.0,
        sigma_deviation=None, frame_deviation=np.float64(2e-9),
        sympl_residual=0.0, warnings=[])
    ops = [SimpleNamespace(cls=cls, call=lambda r=result: r,
                           check=lambda result, exc: SimpleNamespace(
                               ok=True, error=None, k_err=None, k_dev=None))
           for cls, result in (("roundtrip/x/m201", report),
                               ("analyze/x", (0, "", "")))]
    monkeypatch.setattr(OP_DIGEST.workloads, "WORKLOADS", ["w"])
    monkeypatch.setattr(OP_DIGEST.workloads, "build",
                        lambda *args: SimpleNamespace(cycles=[ops]))
    *_, ledger = OP_DIGEST.digest([1])
    assert [entry["frame_deviation"] for entry in ledger] == [2e-9, None]
    assert type(ledger[0]["frame_deviation"]) is float


def digest_of(op, workdir):
    outcome, value = OP_DIGEST.run_op(op, workdir)
    h = hashlib.sha256()
    OP_DIGEST.feed(h, value, str(workdir))
    return outcome, h.hexdigest()


def writer(text):
    """An op that writes text, with its work directory in it, to
    out/result.json under the work directory, and returns exit code 0."""

    def call(workdir):
        out = Path(workdir) / "out"
        out.mkdir(exist_ok=True)
        (out / "result.json").write_text(text.format(workdir=workdir))
        return 0, "", ""

    return call


def op(call, workdir):
    return SimpleNamespace(cls="cli", call=lambda: call(workdir),
                           check=lambda result, exc: (result, exc))


def test_an_op_whose_out_file_changes_gets_a_new_sha(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (outcome, one) = digest_of(op(writer("{{\"k\": 1}}"), a), a)
    assert outcome == ((0, "", ""), None)
    _, two = digest_of(op(writer("{{\"k\": 2}}"), a), a)
    _, none = digest_of(op(lambda workdir: (0, "", ""), a), a)
    assert len({one, two, none}) == 3
    # the work directory's name in a file does not enter the hash
    _, here = digest_of(op(writer("{{\"in\": \"{workdir}\"}}"), a), a)
    _, there = digest_of(op(writer("{{\"in\": \"{workdir}\"}}"), b), b)
    assert here == there


def test_a_file_the_op_leaves_alone_is_not_hashed(tmp_path):
    (tmp_path / "input.json").write_text("{}")
    _, with_input = digest_of(op(writer("{{}}"), tmp_path), tmp_path)
    other = tmp_path / "other"
    other.mkdir()
    _, without = digest_of(op(writer("{{}}"), other), other)
    assert with_input == without


def hashed(value):
    h = hashlib.sha256()
    OP_DIGEST.feed(h, value, "w")
    return h.hexdigest()


def test_an_analysis_feeds_its_frame_before_reduced():
    ana = analyze(preset_curve("paper-6.2-ex1"), SampleGrid(0.0, 1.0, 41))
    first = hashed(ana)
    # the frame, built again on a second read, feeds the same bytes
    assert hashed(ana) == first
    # the layout that stored the frame as a field between error and reduced
    h = hashlib.sha256()
    h.update(b"Analysis\n")
    for name in ("curve", "grid", "velocity_sign", "jets", "ricci_series",
                 "min_eig_gap", "arc", "error", "frame", "reduced"):
        OP_DIGEST.feed(h, getattr(ana, name), "w")
    assert h.hexdigest() == first
