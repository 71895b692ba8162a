import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import icdof
from icdof.channel import generic_channel, store_channel
from icdof import condition
from icdof.cli import _dump_json, main, parse_ifs_spec
from test_channel import MISREAD, MISREAD_BASE

CANTOR_SPEC = '{"r": "1/3", "atoms": [0, 2]}'


@pytest.fixture
def generic_file(tmp_path):
    path = tmp_path / "generic3.json"
    path.write_text(json.dumps(store_channel(generic_channel(3))))
    return str(path)


@pytest.fixture
def rational_file(tmp_path):
    doc = {
        "K": 2,
        "generators": [],
        "entries": [["2", "1"], ["1", "3"]],
    }
    path = tmp_path / "rational2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPORT_SCHEMA = {
    "type": "object",
    "required": ["manifest", "report"],
    "properties": {
        "manifest": {
            "type": "object",
            "required": ["command", "parameters", "tool_version",
                         "input_digests", "wall_clock_s"],
            "properties": {
                "command": {"type": "string"},
                "tool_version": {"type": "string"},
                "wall_clock_s": {"type": "number"},
                "input_digests": {
                    "type": "object",
                    "additionalProperties": {"pattern": "^sha256:[0-9a-f]{64}$"},
                },
            },
        },
        "report": {"type": "object"},
    },
}


class TestCheck:
    def test_generic_independent(self, capsys, generic_file):
        code, out, _ = run(
            capsys, "check", "--channel", generic_file, "--degree", "1"
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        assert doc["report"]["independent"] is True
        assert all(r["rank"] == 14 for r in doc["report"]["receivers"])

    def test_rational_dependent_with_certificate(self, capsys, rational_file):
        code, out, _ = run(
            capsys, "check", "--channel", rational_file, "--degree", "0"
        )
        assert code == 0  # the check itself succeeds; the verdict is negative
        doc = json.loads(out)
        assert doc["report"]["independent"] is False
        cert = doc["report"]["receivers"][0]["certificate"]
        assert any(cert["a"]) or any(cert["b"])

    def test_single_receiver(self, capsys, generic_file):
        code, out, _ = run(
            capsys, "check", "--channel", generic_file,
            "--degree", "1", "--receiver", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["receiver"] for r in doc["report"]["receivers"]] == [2]

    def test_out_of_range_receiver_refused_before_the_family(
        self, capsys, tmp_path
    ):
        # h12 = h12 + h13: the family at d=9 (10,010 columns) is past the
        # elimination cap, so only a range checked first gives this error.
        doc = store_channel(generic_channel(3))
        doc["entries"][0][1] = "h12 + h13"
        path = tmp_path / "multi12.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--channel", str(path),
                             "--degree", "9", "--receiver", "0")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == (
            "ValueError: receiver 0 out of range 1..3")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--channel", "/no/such.json",
                           "--degree", "1")
        assert code == 1
        assert "error" in json.loads(err)

    def test_zero_denominator(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"K": 2, "generators": ["x"],
                                    "entries": [["1", "1/0*x"], ["x", "1"]]}))
        code, _, err = run(capsys, "check", "--channel", str(path),
                           "--degree", "1")
        assert code == 1
        assert json.loads(err)["error"].startswith("ChannelFormatError: ")


    def test_stray_star_refused(self, capsys, tmp_path):
        path = tmp_path / "stray.json"
        path.write_text(json.dumps({
            "K": 2, "generators": ["h11", "h12", "h21", "h22"],
            "entries": [["h11", "h12**2"], ["h21", "h22"]],
        }))
        code, out, err = run(capsys, "check", "--channel", str(path),
                             "--degree", "1")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("ChannelFormatError: ")

    @pytest.mark.parametrize("mutation, message", MISREAD)
    def test_misread_document_refused(self, capsys, tmp_path, mutation, message):
        path = tmp_path / "misread.json"
        path.write_text(json.dumps(dict(MISREAD_BASE, **mutation)))
        code, out, err = run(capsys, "check", "--channel", str(path),
                             "--degree", "0")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error.startswith("ChannelFormatError: ") and message in error


class TestBuildAndBound:
    def test_build(self, capsys, generic_file):
        code, out, _ = run(
            capsys, "build", "--channel", generic_file,
            "--degree", "1", "--range", "2",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["phi"] == 7
        assert rep["cardinality"] == "2^7"
        assert rep["contraction"] == "1/2^(14)"
        assert rep["unique_representation"] is True

    def test_bound_values(self, capsys, generic_file):
        code, out, _ = run(
            capsys, "bound", "--channel", generic_file,
            "--degree", "1", "--range", "2",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, REPORT_SCHEMA)
        rep = doc["report"]
        assert rep["total"] == pytest.approx(3 / 28, abs=1e-12)
        assert rep["log_inv_r"] == pytest.approx(14.0)
        assert rep["notes"]

    def test_bound_past_degree_one(self, capsys, generic_file):
        # |W_N| = 2^28 is sized from the basis and never enumerated.
        code, out, _ = run(
            capsys, "bound", "--channel", generic_file,
            "--degree", "2", "--range", "2",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["cardinality"] == "2^28"
        assert rep["total"] == pytest.approx(0.1875, abs=1e-12)

    @pytest.mark.parametrize("command, degree, rng, phi", [
        ("bound", "10", "2", 8008),
        ("bound", "8", "100", 3003),
        ("build", "8", "100", 3003),
    ])
    def test_sizes_past_the_int_digit_limit_written_exactly(
        self, capsys, generic_file, command, degree, rng, phi
    ):
        # N^(2 phi(d)) has more decimal digits than Python converts to a
        # string (4,300 by default); the factored form has a handful.
        code, out, _ = run(
            capsys, command, "--channel", generic_file,
            "--degree", degree, "--range", rng,
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["cardinality"] == f"{rng}^{phi}"
        assert rep["contraction"] == f"1/{rng}^({2 * phi})"
        assert rep["log_inv_r"] == 2.0 * phi * math.log2(int(rng))

    def test_sizes_past_the_float_range_refused(self, capsys, tmp_path):
        # Generic K=5 at d=10^17: the gate certifies the channel at every
        # degree, and phi(d) = C(10^17 + 20, 20) > 10^320 has no float.
        path = tmp_path / "generic5.json"
        path.write_text(json.dumps(store_channel(generic_channel(5))))
        code, out, err = run(
            capsys, "bound", "--channel", str(path),
            "--degree", str(10**17), "--range", "3",
        )
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("OverflowError: ")

    def test_bound_refuses_dependent_channel(self, capsys, rational_file):
        code, _, err = run(
            capsys, "bound", "--channel", rational_file,
            "--degree", "0", "--range", "2",
        )
        assert code == 1
        doc = json.loads(err)
        assert "condition_report" in doc
        assert doc["condition_report"]["independent"] is False

    def test_build_refuses_dependent_channel(self, capsys, rational_file):
        # build gates at the requested degree, not at d+1 as bound does
        code, _, err = run(
            capsys, "build", "--channel", rational_file,
            "--degree", "1", "--range", "2",
        )
        assert code == 1
        doc = json.loads(err)
        assert doc["condition_report"]["degree"] == 1
        assert doc["condition_report"]["independent"] is False

    def test_bound_waiver(self, capsys, rational_file):
        code, out, _ = run(
            capsys, "bound", "--channel", rational_file,
            "--degree", "0", "--range", "2", "--waive-condition",
        )
        assert code == 0
        assert "total" in json.loads(out)["report"]

    def test_out_file(self, capsys, generic_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "build", "--channel", generic_file,
            "--degree", "0", "--range", "3", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["report"]["cardinality"] == "3^1"


class TestSweep:
    def test_csv_shape(self, capsys, generic_file):
        code, out, _ = run(
            capsys, "sweep", "--channel", generic_file,
            "--degrees", "0,1", "--ranges", "2,3",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == ("degree,coeff_range,cardinality,log_inv_r,total,"
                            "interference_ratio_bound")
        assert len(lines) == 2 + 4

    def test_byte_identical_rerun(self, capsys, generic_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys, "sweep", "--channel", generic_file,
                "--degrees", "0,1", "--ranges", "2,3", "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cell_past_the_int_digit_limit_written_exactly(
        self, capsys, generic_file
    ):
        # The d=12 cell's |W_N| = 2^18564 has 5589 decimal digits.
        code, out, _ = run(
            capsys, "sweep", "--channel", generic_file,
            "--degrees", "1,12", "--ranges", "2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert [row[:3] for row in rows] == [
            ["1", "2", "2^7"], ["12", "2", "2^18564"]]

    @pytest.mark.parametrize("degrees,ranges", [("", "2"), ("1", ",")])
    def test_empty_grid_refused(self, capsys, generic_file, monkeypatch,
                                degrees, ranges):
        def refuse(*args):
            raise AssertionError("the condition gate ran")

        monkeypatch.setattr(condition, "require_independent", refuse)
        code, out, err = run(
            capsys, "sweep", "--channel", generic_file,
            "--degrees", degrees, "--ranges", ranges,
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == (
            "ValueError: sweep needs at least one degree and one range")


class TestExampleRationalAndFig1:
    def test_example_rational(self, capsys):
        code, out, _ = run(
            capsys, "example-rational", "--k", "3", "--range", "1024"
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["closed_form_bound"] == pytest.approx(
            1.1918986647072214, abs=1e-12
        )
        assert rep["dof"]["total"] == pytest.approx(rep["closed_form_bound"],
                                                    abs=1e-9)
        assert rep["interference_support"] == [0, 2046]

    def test_example_rational_width_cap(self, capsys):
        # the dense interference law would be 1 + 2 (N-1) h_max wide
        code, _, err = run(
            capsys, "example-rational", "--k", "3", "--hmax", "1000000",
            "--range", "524288",
        )
        assert code == 1
        assert json.loads(err)["error"].startswith("CapExceededError: ")

    def test_fig1(self, capsys):
        code, out, _ = run(capsys, "fig1")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["common_structure_cardinality"] == 19
        assert rep["different_structure_cardinality"] == 49


class TestEstimate:
    def test_csv_and_summary(self, capsys, tmp_path):
        target = tmp_path / "est.csv"
        code, out, _ = run(
            capsys, "estimate", "--spec", CANTOR_SPEC,
            "--k-grid", "9,27,81", "--samples", "20000",
            "--seed", "1", "--out", str(target),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["report"]["slope"] == pytest.approx(0.6309, abs=0.05)
        lines = target.read_text().strip().split("\n")
        assert lines[1] == "k,H_bits,H_over_logk"
        assert len(lines) == 2 + 3
        # cells are plain decimal literals
        for row in lines[2:]:
            k, h, p = row.split(",")
            assert float(h) > 0 and 0 < float(p) <= 1.5
            assert "np." not in row

    def test_byte_identical_rerun(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys, "estimate", "--spec", CANTOR_SPEC,
                "--k-grid", "9,27", "--samples", "5000",
                "--seed", "7", "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_k_grid_refused(self, capsys):
        code, out, err = run(
            capsys, "estimate", "--spec", CANTOR_SPEC, "--k-grid", "",
            "--samples", "2000",
        )
        assert code == 1 and out == ""
        assert "k_grid must hold positive integers" in json.loads(err)["error"]

    def test_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(CANTOR_SPEC)
        code, out, _ = run(
            capsys, "estimate", "--spec", str(spec_path),
            "--k-grid", "9,27", "--samples", "2000",
        )
        assert code == 0
        assert out.startswith("# manifest: ")


class TestIfsSubcommand:
    def test_diagnostics(self, capsys):
        code, out, _ = run(capsys, "ifs", "--spec", CANTOR_SPEC)
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["dimension_formula"] == pytest.approx(0.6309, abs=1e-4)
        assert rep["separation"]["satisfied"] is True

    def test_overlap_search(self, capsys):
        spec = '{"r": "1/2", "atoms": [0, 1, 2]}'
        code, out, _ = run(capsys, "ifs", "--spec", spec, "--overlap-depth", "2")
        assert code == 0
        rep = json.loads(out)["report"]
        assert {"word_a": [1, 2], "word_b": [2, 0], "delta_abs": 0.0} in rep["overlaps"]

    def test_sample_export_csv(self, capsys, tmp_path):
        target = tmp_path / "draws.csv"
        code, out, _ = run(
            capsys, "ifs", "--spec", CANTOR_SPEC, "--sample", "100",
            "--depth", "10", "--samples-out", str(target),
        )
        assert code == 0
        values = [float(line) for line in target.read_text().split()]
        assert len(values) == 100
        assert all(0.0 <= v <= 3.0 for v in values)

    def test_sample_export_f64(self, capsys, tmp_path):
        import numpy as np

        target = tmp_path / "draws.bin"
        code, _, _ = run(
            capsys, "ifs", "--spec", CANTOR_SPEC, "--sample", "64",
            "--depth", "10", "--format", "f64", "--samples-out", str(target),
        )
        assert code == 0
        arr = np.fromfile(target, dtype="<f8")
        assert arr.shape == (64,)

    def test_invalid_spec(self, capsys):
        code, _, err = run(capsys, "ifs", "--spec", '{"r": "1/3"}')
        assert code == 1
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("spec", [
        '{"r": "1/0", "atoms": [0, 1]}',
        '{"r": "1/3", "atoms": [0, "3/0"]}',
        '{"r": "1/3", "atoms": [0, 1], "probs": ["1/0", "1/2"]}',
        '{"r": "1/3", "atoms": [0, 1], "probs": [null, "1/2"]}',
    ], ids=["r", "atom", "prob", "null-prob"])
    @pytest.mark.parametrize("command", ["ifs", "estimate"])
    def test_malformed_number(self, capsys, command, spec):
        code, _, err = run(capsys, command, "--spec", spec)
        assert code == 1
        assert "malformed number" in json.loads(err)["error"]

    @pytest.mark.parametrize("flag", ["--overlap-depth", "--sample"])
    def test_explicit_zero_refused(self, capsys, tmp_path, flag):
        code, out, err = run(
            capsys, "ifs", "--spec", CANTOR_SPEC, flag, "0",
            "--samples-out", str(tmp_path / "draws.csv"),
        )
        assert code == 1 and out == ""
        assert "must be >= 1" in json.loads(err)["error"]

    def test_nan_tolerance_refused(self, capsys):
        code, out, err = run(
            capsys, "ifs", "--spec", '{"r": "1/2", "atoms": [0, 1, 2]}',
            "--overlap-depth", "3", "--tolerance", "nan",
        )
        assert code == 1 and out == ""
        assert "tolerance must be >= 0" in json.loads(err)["error"]

    @pytest.mark.parametrize("atom", ['"nan"', '"inf"', '"-inf"', "NaN", "-Infinity"])
    @pytest.mark.parametrize("command", ["ifs", "estimate"])
    def test_non_finite_atom_refused(self, capsys, command, atom):
        spec = '{"r": "1/2", "atoms": [0, %s]}' % atom
        code, out, err = run(capsys, command, "--spec", spec)
        assert code == 1 and out == ""
        assert "atoms must be finite" in json.loads(err)["error"]


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--degree", "1"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestParseIfsSpec:
    def test_exact_fraction(self):
        spec = parse_ifs_spec('{"r": "1/3", "atoms": ["0", "2"]}')
        assert spec.is_rational()

    def test_float_atoms(self):
        spec = parse_ifs_spec('{"r": 0.5, "atoms": [0.0, 1.3]}')
        assert not spec.is_rational()

    def test_probs(self):
        spec = parse_ifs_spec(
            '{"r": "1/4", "atoms": [0, 1], "probs": ["1/4", "3/4"]}'
        )
        assert str(spec.probs[1]) == "3/4"


#: Characters the JSON writer must treat as string content, not layout.
TRICKY = st.sampled_from(['"', "\\", "[", "]", "{", "}", ",", ":", " ", "\n",
                          "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"])
JSON_TEXT = st.text(st.one_of(TRICKY, st.characters()), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
        st.floats(), JSON_TEXT,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


class TestDumpJson:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    @example({"a": "\\\""})
    @example([[]])
    @example({"": {}})
    @example({"k": [{}, [], [[{}]], "[{,:}]"], "": None})
    @example([float("nan"), float("inf"), -float("inf"), 10**30, True, "\\"])
    @example(json.loads("[" * 200 + '{"deep": [1]}' + "]" * 200))
    def test_equals_indented_dumps(self, value):
        assert _dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_runtime_does_not_import_scipy(tmp_path):
    code = """if True:
        import sys
        from fractions import Fraction
        from icdof import cli, ifs
        spec = ifs.IFSSpec(Fraction(1, 3), (0, 2))
        ifs.fixed_point_discrepancy(spec, 4, 1000, 0)
        cli.main(["ifs", "--spec", '{"r": "1/2", "atoms": [0, 1, 2]}',
                  "--overlap-depth", "3", "--out", sys.argv[1]])
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """
    src = str(Path(icdof.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split() == ["[]"]
    assert json.loads((tmp_path / "report.json").read_text())["report"]["overlaps"]
