"""Golden CLI payloads: ``check``, ``build``, ``bound`` and ``sweep`` outputs
and ``to_ifs`` atoms, pinned exactly.

Each case is the ``report`` part of a JSON payload (the manifest, which holds
the wall clock and the tool version, is left out), the data rows of a CSV
payload, or a list of atoms.  Floats round-trip through JSON exactly, so an
equal case is a byte-identical payload.  The goldens in
``golden/cli_payloads.json`` were captured before the structural shortcuts
(lazy W_N, independence of distinct single terms) existed; they must not
move any payload.  To regenerate them for a change that means to alter a
payload, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from icdof.channel import generic_channel, load_channel, store_channel
from icdof.cli import main
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


DOCS = {
    "generic3": lambda: store_channel(generic_channel(3)),
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


def _atoms(matrix, d, N, valuation):
    return [float(a) for a in to_ifs(build_w_n(matrix, d, N), valuation).atoms]


CASES = {
    "check generic3 d=2": lambda w: _report(w, "check", "generic3", "--degree", "2"),
    "check product3 d=2": lambda w: _report(w, "check", "product3", "--degree", "2"),
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
    "sweep generic3 d=0,1 N=2,3": lambda w: _sweep_rows(w, "generic3", "0,1", "2,3"),
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


def capture() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {case: CASES[case](Path(tmp)) for case in sorted(CASES)}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    sys.exit(0)
