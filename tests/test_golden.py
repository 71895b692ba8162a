"""Golden CLI payloads: ``check``, ``build``, ``bound``, ``sweep``,
``example-rational``, ``fig1``, ``estimate`` and ``ifs`` outputs and
``to_ifs`` atoms, pinned exactly.

Each case is the ``report`` part of a JSON payload (the manifest, which holds
the wall clock and the tool version, is left out), the data rows of a CSV
payload, or a list of atoms.  Floats round-trip through JSON exactly, so an
equal case is a byte-identical payload.  The goldens in
``golden/cli_payloads.json`` were captured before the structural shortcuts
(lazy W_N, independence of distinct single terms) existed, and were
regenerated once when sizes came to be written factored: ``cardinality``
as ``"b^e"``, ``contraction`` as ``"1/b^(2e)"`` and log2(1/r) as
2 e log2 b, which moved the last bits of some gated totals.  A shortcut
must not move any payload.  To regenerate them for a change that means to
alter a payload, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from icdof import ifs
from icdof.channel import generic_channel, load_channel, store_channel
from icdof.cli import main, parse_ifs_spec
from icdof.dofbound import build_w_n, to_ifs

GOLDEN = Path(__file__).parent / "golden" / "cli_payloads.json"

#: h12 = h21 = g: the two degree-1 basis values coincide (W_N collides).
SHARED_DOC = {
    "K": 2,
    "generators": ["g", "h11", "h22"],
    "entries": [["h11", "g"], ["g", "h22"]],
}


def _product_doc():
    """Generic K=3 with h32 = 2/3*h12*h13: single terms, colliding monomials."""
    doc = store_channel(generic_channel(3))
    doc["entries"][2][1] = "2/3*h12*h13"
    return doc


def _multi_term_doc():
    """Generic K=3 with multi-term diagonal entries; h33 lies in the span of
    the degree-2 off-diagonal monomials, so receiver 3's family is dependent
    from d=2 on (it loses phi(d-2) ranks)."""
    doc = store_channel(generic_channel(3))
    doc["entries"][0][0] = "h11 + 2/3"
    doc["entries"][1][1] = "h22 + 5/7*h11"
    doc["entries"][2][2] = "3/4*h12*h13 + 7/2*h21"
    return doc


DOCS = {
    "generic3": lambda: store_channel(generic_channel(3)),
    "multi3": _multi_term_doc,
    "product3": _product_doc,
    "shared2": lambda: SHARED_DOC,
}


def _cli(work: Path, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _channel(work: Path, name: str) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(DOCS[name]()), encoding="utf-8")
    return str(path)


def _report(work, command, name, *flags):
    text = _cli(work, [command, "--channel", _channel(work, name), *flags])
    return json.loads(text)["report"]


def _sweep_rows(work, name, degrees, ranges):
    text = _cli(work, ["sweep", "--channel", _channel(work, name),
                       "--degrees", degrees, "--ranges", ranges])
    return text.splitlines()[1:]


def _plain_report(work, *argv):
    return json.loads(_cli(work, list(argv)))["report"]


def _atoms(matrix, d, N, valuation):
    return [float(a) for a in to_ifs(build_w_n(matrix, d, N), valuation).atoms]


def _w3_spec() -> str:
    """The 27 letters of generic K=2 W_N at d=1, N=3 as atoms, r = 1/729."""
    spec = to_ifs(build_w_n(generic_channel(2), 1, 3), [1.1, 1.3, 1.7, 1.9])
    return json.dumps({"r": f"{spec.r.numerator}/{spec.r.denominator}",
                       "atoms": [float(a) for a in spec.atoms]})


#: Four atoms with a zero-probability atom and a dominant one.
SKEWED_SPEC = json.dumps({"r": "2/5", "atoms": [0, 1, 3, "7/2"],
                          "probs": ["1/10", "0", "6/10", "3/10"]})


def _sample_digest(work: Path) -> dict:
    path = work / "samples.f64"
    report = _plain_report(
        work, "ifs", "--spec", SKEWED_SPEC, "--sample", "4096", "--format",
        "f64", "--threads", "3", "--seed", "11", "--samples-out", str(path))
    assert report.pop("samples_out") == str(path)
    return {"report": report,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


CASES = {
    "check generic3 d=2": lambda w: _report(w, "check", "generic3", "--degree", "2"),
    "check product3 d=2": lambda w: _report(w, "check", "product3", "--degree", "2"),
    "check multi3 d=3": lambda w: _report(w, "check", "multi3", "--degree", "3"),
    "build shared2 d=1 N=2": lambda w: _report(
        w, "build", "shared2", "--degree", "1", "--range", "2",
        "--waive-condition"),
    "build generic3 d=1 N=3": lambda w: _report(
        w, "build", "generic3", "--degree", "1", "--range", "3"),
    **{
        f"bound generic3 d={d} N={N}": (
            lambda w, d=d, N=N: _report(
                w, "bound", "generic3", "--degree", str(d), "--range", str(N))
        )
        for d in (0, 1)
        for N in (2, 3, 4)
    },
    **{
        f"bound generic3 d=1 N={N} waived": (
            lambda w, N=N: _report(
                w, "bound", "generic3", "--degree", "1", "--range", str(N),
                "--waive-condition")
        )
        for N in (2, 3, 4)
    },
    # A gated N=3 cell past d=1.  The waived exact path's total is 2e-13
    # (relative) off this one, so the case pins the path taken.
    "bound generic3 d=8 N=3": lambda w: _report(
        w, "bound", "generic3", "--degree", "8", "--range", "3"),
    "bound multi3 d=0 N=4": lambda w: _report(
        w, "bound", "multi3", "--degree", "0", "--range", "4",
        "--waive-condition"),
    "bound shared2 d=1 N=2": lambda w: _report(
        w, "bound", "shared2", "--degree", "1", "--range", "2",
        "--waive-condition"),
    "sweep generic3 d=0,1 N=2,3": lambda w: _sweep_rows(w, "generic3", "0,1", "2,3"),
    "ifs r=1/2 atoms=0,1,2 overlap-depth=4": lambda w: _plain_report(
        w, "ifs", "--spec", '{"r": "1/2", "atoms": [0, 1, 2]}',
        "--overlap-depth", "4"),
    "example-rational k=3 N=1024": lambda w: _plain_report(
        w, "example-rational", "--k", "3", "--range", "1024"),
    "example-rational k=4 hmax=3 N=64": lambda w: _plain_report(
        w, "example-rational", "--k", "4", "--hmax", "3", "--range", "64"),
    "fig1": lambda w: _plain_report(w, "fig1"),
    "estimate cantor samples=4000 seed=3": lambda w: _cli(
        w, ["estimate", "--spec", '{"r": "1/3", "atoms": [0, 2]}',
            "--k-grid", "9,27,81", "--samples", "4000", "--seed", "3"],
    ).splitlines()[1:],
    "estimate w3 samples=20000 threads=2 seed=5": lambda w: _cli(
        w, ["estimate", "--spec", _w3_spec(), "--kmin", "729",
            "--kmax", str(729**3), "--samples", "20000", "--threads", "2",
            "--seed", "5"],
    ).splitlines()[1:],
    "ifs skewed sample=4096 f64 threads=3 seed=11": _sample_digest,
    "fixed_point_discrepancy skewed depth=6 count=3001 seed=7": lambda w: (
        ifs.fixed_point_discrepancy(parse_ifs_spec(SKEWED_SPEC), 6, 3001, 7)),
    "to_ifs generic2 d=1 N=3": lambda w: _atoms(
        generic_channel(2), 1, 3, [1.1, 1.3, 1.7, 1.9]),
    "to_ifs shared2 d=1 N=3": lambda w: _atoms(
        load_channel(SHARED_DOC), 1, 3, [1.3, 1.1, 1.7]),
}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_matches_golden(case, goldens, tmp_path):
    assert CASES[case](tmp_path) == goldens[case]


@pytest.mark.parametrize("receiver", [1, 2, 3])
@pytest.mark.parametrize("name,degree", [("product3", "2"), ("multi3", "3")])
def test_single_receiver_check_is_its_entry_of_the_full_check(
        name, degree, receiver, tmp_path):
    full = _report(tmp_path, "check", name, "--degree", degree)
    entry = full["receivers"][receiver - 1]
    single = _report(tmp_path, "check", name, "--degree", degree,
                     "--receiver", str(receiver))
    assert single == {"degree": int(degree), "independent": entry["independent"],
                      "receivers": [entry]}


def capture() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {case: CASES[case](Path(tmp)) for case in sorted(CASES)}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)
