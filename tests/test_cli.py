import argparse
import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import pytest

from symext import catalog, cli, groupdata, lambdaops, permgroup
from symext.catalog import NoModelError, central_characters, get_group
from symext.closedforms import (
    CentralForms,
    burnside_regular_forms,
    central_forms,
    subgroup_spec,
)
from symext.groupdata import ClassFunction
from symext.lambdaops import LambdaSequence
from symext.exactnum import Cyclotomic
from symext.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    MAX_CLASSES,
    MAX_DEGREE,
    MAX_ROOT_ORDER,
    OutputDocument,
    dump_group_spec,
    load_group_spec,
    main,
)


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_decompose_sym_degree6():
    code, out, _ = run_cli(
        ["decompose", "--group", "S3", "--char", "chi3", "--op", "sym", "--degree", "6"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["degree", "chi1", "chi2", "chi3"]
    assert lines[-1].split() == ["6", "2", "1", "2"]


def test_decompose_ext_degree2():
    code, out, _ = run_cli(
        ["decompose", "--group", "S3", "--char", "chi3", "--op", "ext", "--degree", "2"]
    )
    assert code == EXIT_OK
    rows = [ln.split()[1:] for ln in out.strip().splitlines()[1:]]
    assert rows == [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]


def test_decompose_degree0_is_trivial_row():
    code, out, _ = run_cli(
        ["decompose", "--group", "A4", "--char", "chi4", "--op", "sym", "--degree", "0"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split() == ["0", "1", "0", "0", "0"]


def test_decompose_input_errors():
    code, _, err = run_cli(
        ["decompose", "--group", "S3", "--char", "nope", "--op", "sym"]
    )
    assert code == EXIT_INPUT and "unknown character" in err
    code, _, err = run_cli(
        ["decompose", "--group", "Nope99", "--char", "chi1", "--op", "sym"]
    )
    assert code == EXIT_INPUT
    code, _, err = run_cli(
        ["decompose", "--group", "S3", "--char", "chi1", "--degree", "-2"]
    )
    assert code == EXIT_INPUT


def test_genfun_rational_and_series():
    code, out, _ = run_cli(
        ["genfun", "--group", "S3", "--char", "chi3", "--irr", "1", "--op", "sym"]
    )
    assert code == EXIT_OK
    assert "1 / (1-t^3)(1-t^2)" in out
    code, out, _ = run_cli(
        ["genfun", "--group", "S3", "--char", "regular", "--irr", "3",
         "--op", "sym", "--series", "10", "--check-consistency"]
    )
    assert code == EXIT_OK
    coeffs = [ln.split()[1] for ln in out.strip().splitlines()[1:]]
    assert coeffs == ["0", "2", "7", "18", "42", "84", "153", "264", "429", "666", "1001"]


S4_REGULAR_CHI1 = """\
field        value
display      (1 - 3*t + 13*t^2 + 55*t^3 + 336*t^4 + 1245*t^5 + 4915*t^6 + 14595*t^7 + 41275*t^8 + 99295*t^9 + 222075*t^10 + 443997*t^11 + 825190*t^12 + 1395997*t^13 + 2204411*t^14 + 3206567*t^15 + 4367292*t^16 + 5517834*t^17 + 6539082*t^18 + 7211746*t^19 + 7471780*t^20 + 7211746*t^21 + 6539082*t^22 + 5517834*t^23 + 4367292*t^24 + 3206567*t^25 + 2204411*t^26 + 1395997*t^27 + 825190*t^28 + 443997*t^29 + 222075*t^30 + 99295*t^31 + 41275*t^32 + 14595*t^33 + 4915*t^34 + 1245*t^35 + 336*t^36 + 55*t^37 + 13*t^38 - 3*t^39 + t^40) / (1-t^4)^6(1-t^3)^8(1-t^2)^6(1-t)^4
numerator    1 -3 13 55 336 1245 4915 14595 41275 99295 222075 443997 825190 1395997 2204411 3206567 4367292 5517834 6539082 7211746 7471780 7211746 6539082 5517834 4367292 3206567 2204411 1395997 825190 443997 222075 99295 41275 14595 4915 1245 336 55 13 -3 1
denominator  1 -4 0 12 6 -12 -68 -4 141 168 -24 -552 -466 376 1356 1200 -1290 -3096 -2084 2480 6354 3168 -4320 -10176 -5341 7132 13692 7700 -8966 -17268 -8552 8876 19122 8876 -8552 -17268 -8966 7700 13692 7132 -5341 -10176 -4320 3168 6354 2480 -2084 -3096 -1290 1200 1356 376 -466 -552 -24 168 141 -4 -68 -12 6 12 0 -4 1
"""


def test_genfun_regular_s4_output_is_pinned():
    code, out, _ = run_cli(
        ["genfun", "--group", "S4", "--char", "regular", "--irr", "chi1", "--op", "sym"]
    )
    assert code == EXIT_OK
    assert out == S4_REGULAR_CHI1


def test_genfun_ext_zero_column():
    code, out, _ = run_cli(
        ["genfun", "--group", "S4", "--char", "chi3", "--irr", "chi5", "--op", "ext"]
    )
    assert code == EXIT_OK
    assert "display      0" in out


def test_closedform_regular():
    code, out, _ = run_cli(
        ["closedform", "--group", "S3", "--spec", "regular", "--degree", "5"]
    )
    assert code == EXIT_OK
    assert "(1+t)^6" in out
    assert "42*chi1 + 42*chi2 + 84*chi3" in out


def test_closedform_central_and_onedim():
    code, out, _ = run_cli(
        ["closedform", "--group", "Hp:3", "--spec", "central:zeta_1", "--degree", "3"]
    )
    assert code == EXIT_OK
    assert "ext^2" in out and "tau_2" in out
    # the third exterior power collapses onto the trivial character
    line = next(ln for ln in out.splitlines() if ln.startswith("ext^3"))
    assert line.split()[-1] == "chi_0_0"
    code, out, _ = run_cli(
        ["closedform", "--group", "S3", "--spec", "onedim:chi1"]
    )
    assert code == EXIT_OK
    assert "1 / (1-t)" in out
    code, _, err = run_cli(["closedform", "--group", "S3", "--spec", "central:x"])
    assert code == EXIT_INPUT


def test_verify_builtin_groups():
    for group in ["S3", "A4", "Q4n:2"]:
        code, out, _ = run_cli(["verify", "--group", group, "--degree", "6"])
        assert code == EXIT_OK
        assert "FAIL" not in out


def test_verify_reports_failures_with_exit_1(monkeypatch):
    import symext.cli as cli

    monkeypatch.setattr(
        cli, "_verify_checks", lambda ctx, degree: [
            {"check": "forced", "ok": False, "detail": "boom"}
        ]
    )
    code, out, _ = run_cli(["verify", "--group", "S3"])
    assert code == EXIT_VERIFY
    assert "FAIL" in out


def test_verify_dual_route_catches_a_wrong_sym_value(monkeypatch):
    import symext.lambdaops as lambdaops

    real = lambdaops._scalar_syms

    def bumped(lam, M):
        # S^M + 1 at every class still decomposes into integers, so only the
        # power-sum route can notice
        out = real(lam, M)
        if M >= 2:
            out[M] = out[M] + 1
        return out

    monkeypatch.setattr(lambdaops, "_scalar_syms", bumped)
    code, out, _ = run_cli(["verify", "--group", "S3"])
    assert code == EXIT_VERIFY
    line = next(ln for ln in out.splitlines() if ln.startswith("dual-route-coefficients"))
    assert line.split()[1] == "FAIL"
    # the rational forms read S^(deg D) too, and their certificate fails as a row
    assert ["one-dimensional-forms", "FAIL"] in [ln.split() for ln in out.splitlines()]


def test_output_determinism_and_machine_round_trip():
    args = ["decompose", "--group", "A4", "--char", "chi4", "--op", "sym",
            "--degree", "8", "--format", "machine"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical
    raw = json.loads(out1)
    assert raw["kind"] == "table"
    assert raw["payload"]["rows"][0] == [1, 0, 0, 0]
    assert OutputDocument(raw["kind"], raw["payload"]).to_machine() + "\n" == out1


def test_csv_format():
    code, out, _ = run_cli(
        ["decompose", "--group", "S3", "--char", "chi3", "--op", "sym",
         "--degree", "2", "--format", "csv"]
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "degree,chi1,chi2,chi3"
    assert out.splitlines()[3] == "2,1,0,1"


def test_group_spec_round_trip(tmp_path):
    doc = dump_group_spec(get_group("G21"))
    doc["normal_subgroups"] = {"C7": [0, 1, 2]}
    path = tmp_path / "g21.json"
    path.write_text(json.dumps(doc))
    ctx = load_group_spec(str(path))
    assert ctx.table == get_group("G21")
    assert "C7" in ctx.subgroups
    code, out, _ = run_cli(["verify", "--group", str(path), "--degree", "5"])
    assert code == EXIT_OK and "FAIL" not in out


def test_group_spec_with_generators_and_central(tmp_path):
    doc = dump_group_spec(get_group("S3"), generators=["(0 1)", "(0 1 2)"])
    # the 3-cycle class is inverse-closed, so only the trivial zeta is a
    # well-defined class-level assignment on A3 inside S3
    doc["normal_subgroups"] = {"A3": [0, 2]}
    doc["central_chars"] = {
        "coset": {"subgroup": "A3", "zeta": {"0": 0, "2": 0}, "multiplier": 2}
    }
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    ctx = load_group_spec(str(path))
    assert ctx.natural is not None
    assert [v.to_rational() for v in ctx.natural.values] == [3, 1, 0]
    assert "coset" in ctx.central
    code, out, _ = run_cli(
        ["decompose", "--group", str(path), "--char", "natural", "--op", "sym",
         "--degree", "3"]
    )
    assert code == EXIT_OK


def test_group_spec_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["verify", "--group", str(bad)])
    assert code == EXIT_INPUT and "invalid JSON" in err

    doc = dump_group_spec(get_group("S3"))
    doc["irreducibles"][2]["values"][1] = [[0, 1, 1]]  # corrupt one value
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and "validation failed" in err

    doc = dump_group_spec(get_group("S3"))
    doc["root_order"] = 4  # not a multiple of the exponent
    path2 = tmp_path / "badroot.json"
    path2.write_text(json.dumps(doc))
    code, _, err = run_cli(["verify", "--group", str(path2)])
    assert code == EXIT_INPUT and "root_order" in err

    doc = dump_group_spec(get_group("G21"))
    for cls in doc["classes"]:
        cls["prime_powers"].pop("7", None)  # drop a required dividing prime
    path3 = tmp_path / "noprime.json"
    path3.write_text(json.dumps(doc))
    code, _, err = run_cli(["verify", "--group", str(path3)])
    assert code == EXIT_INPUT and "7" in err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: [1, 2], "top level must be a JSON object"),
        (lambda doc: {**doc, "classes": doc["classes"][:-1] + [7]}, "classes must be"),
        (lambda doc: {**doc, "classes": {"c": 1}}, "classes must be"),
        (lambda doc: {**doc, "irreducibles": 5}, "irreducibles must be"),
        (lambda doc: {**doc, "irreducibles": {"chi1": 1}}, "irreducibles must be"),
        (lambda doc: {**doc, "irreducibles": [[1]]}, "irreducibles must be"),
    ],
    ids=["top-level-array", "class-entry-int", "classes-object",
         "irreducibles-int", "irreducibles-object", "irreducible-entry-list"],
)
def test_group_spec_of_the_wrong_shape_is_an_input_error(tmp_path, mutate, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(mutate(dump_group_spec(get_group("S3")))))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert message in err and len(err.strip().splitlines()) == 1


def _set_class_field(doc, c, field, value):
    doc["classes"][c][field] = value
    return doc


def _at_root_order(doc, k):
    """The same spec with every value re-expressed over zeta_(k*N)."""
    doc = json.loads(json.dumps(doc))
    doc["root_order"] *= k
    for irr in doc["irreducibles"]:
        irr["values"] = [[[e * k, n, d] for e, n, d in v] for v in irr["values"]]
    return doc


@pytest.mark.parametrize(
    "family, param, k",
    [("S3", None, 5), ("S3", None, 10), ("S3", None, 7), ("D2n", 5, 3), ("D2n", 5, 7),
     ("A5", None, 7)],
    ids=["S3-30", "S3-60", "S3-42", "D2n5-30", "D2n5-70", "A5-210"],
)
def test_group_spec_at_a_multiple_of_the_exponent_verifies_alike(tmp_path, family, param, k):
    # a prime p <= exponent that divides root_order but not the exponent
    # needs a lift of p prime to root_order for its derived power map
    doc = dump_group_spec(get_group(family, param))
    outs = []
    for m in (1, k):
        path = tmp_path / f"root{m}.json"
        path.write_text(json.dumps(_at_root_order(doc, m)))
        code, out, err = run_cli(["verify", "--group", str(path)])
        assert code == EXIT_OK and err == "" and "FAIL" not in out
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: _set_class_field(doc, 1, "inverse", 7), "classes[1].inverse"),
        (lambda doc: _set_class_field(doc, 1, "inverse", -1), "classes[1].inverse"),
        (lambda doc: _set_class_field(doc, 2, "prime_powers", {"2": 9, "3": 0}),
         "classes[2].prime_powers['2']"),
        (lambda doc: {**doc, "classes": []}, "classes must not be empty"),
        (lambda doc: _set_class_field(doc, 1, "size", 0), "classes[1]: size"),
        (lambda doc: _set_class_field(doc, 2, "rep_order", 0), "classes[2]: size"),
        (lambda doc: {**doc, "classes": doc["classes"] * 34},
         f"at most {MAX_CLASSES} classes"),
        (lambda doc: _set_field(doc, "root_order", 0), f"root_order must be in 1..{MAX_ROOT_ORDER}"),
        (lambda doc: _set_field(doc, "root_order", 6 * (MAX_ROOT_ORDER // 6 + 1)),
         f"root_order must be in 1..{MAX_ROOT_ORDER}"),
        (lambda doc: _set_multiplier(doc, MAX_DEGREE + 1),
         f"multiplier: the multiplier {MAX_DEGREE + 1} is not in 1..{MAX_DEGREE}"),
        (lambda doc: _set_multiplier(doc, 0),
         f"multiplier: the multiplier 0 is not in 1..{MAX_DEGREE}"),
    ],
    ids=["inverse-too-large", "inverse-negative", "prime-power-image", "no-classes",
         "zero-size", "zero-order", "too-many-classes", "zero-root-order", "root-order-above-cap",
         "multiplier-above-cap", "multiplier-zero"],
)
def test_group_spec_value_out_of_range_is_an_input_error(tmp_path, mutate, message):
    path = tmp_path / "range.json"
    path.write_text(json.dumps(mutate(dump_group_spec(get_group("S3")))))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert message in err and len(err.strip().splitlines()) == 1


def _set_field(doc, field, value):
    doc[field] = value
    return doc


def _set_multiplier(doc, m):
    doc["central_chars"] = {"z": {"subgroup": [0, 2], "zeta": {"0": 0, "2": 0}, "multiplier": m}}
    return doc


def _set_value(doc, j, c, value):
    doc["irreducibles"][j]["values"][c] = value
    return doc


def _set_power(doc, c, key, value):
    doc["classes"][c]["prime_powers"][key] = value
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: _set_class_field(doc, 1, "size", None), "classes[1].size must be"),
        (lambda doc: _set_class_field(doc, 1, "size", True), "classes[1].size must be"),
        (lambda doc: _set_class_field(doc, 1, "size", 3.0), "classes[1].size must be"),
        (lambda doc: _set_class_field(doc, 2, "rep_order", "3"), "classes[2].rep_order must be"),
        (lambda doc: _set_class_field(doc, 1, "inverse", [0]), "classes[1].inverse must be"),
        (lambda doc: _set_class_field(doc, 1, "inverse", False), "classes[1].inverse must be"),
        (lambda doc: _set_class_field(doc, 2, "prime_powers", [1]),
         "classes[2].prime_powers must be a JSON object"),
        (lambda doc: _set_power(doc, 2, "x", 0), "classes[2].prime_powers: key 'x'"),
        (lambda doc: _set_power(doc, 2, "2.5", 0), "classes[2].prime_powers: key '2.5'"),
        (lambda doc: _set_power(doc, 2, "2", "2"), "classes[2].prime_powers['2'] must be"),
        (lambda doc: _set_field(doc, "order", None), "order must be an integer"),
        (lambda doc: _set_field(doc, "root_order", True), "root_order must be an integer"),
        (lambda doc: _set_field(doc, "order", 6.5), "order must be an integer"),
        (lambda doc: {**doc, "irreducibles": [{"values": [[[None, 1, 1]]] * 3}] * 3},
         "irreducibles[0].values[0]"),
        (lambda doc: _set_value(doc, 2, 0, [[0, 2.7, 1]]), "irreducibles[2].values[0] must be"),
        (lambda doc: _set_value(doc, 2, 0, [[0, "2", 1]]), "irreducibles[2].values[0] must be"),
        (lambda doc: _set_value(doc, 0, 1, [[0, True, True]]), "irreducibles[0].values[1] must be"),
        (lambda doc: _set_value(doc, 0, 1, [[0.0, 1, 1]]), "irreducibles[0].values[1] must be"),
        (lambda doc: _set_field(doc, "generators", 5), "generators must be a list"),
        (lambda doc: _set_field(doc, "generators", [5]), "generators must be a list"),
        (lambda doc: _set_field(doc, "normal_subgroups", [1]), "normal_subgroups must be"),
        (lambda doc: _set_field(doc, "normal_subgroups", {"A": 2}),
         "normal_subgroups['A'] must be a list"),
        (lambda doc: _set_field(doc, "normal_subgroups", {"A": [0, "2"]}),
         "normal_subgroups['A'] must be an integer"),
        (lambda doc: _set_field(doc, "central_chars", [1]), "central_chars must be"),
        (lambda doc: _set_field(doc, "central_chars", {"z": 5}), "central_chars['z'] must be"),
        (lambda doc: _set_field(doc, "central_chars", {"z": {"subgroup": 0}}),
         "central_chars['z'].subgroup must be a list"),
        (lambda doc: _set_field(doc, "central_chars", {"z": {"subgroup": [0], "zeta": [0]}}),
         "central_chars['z'].zeta must be"),
        (lambda doc: _set_field(doc, "central_chars",
                                {"z": {"subgroup": [0], "zeta": {"0": None}}}),
         "central_chars['z'].zeta must be an integer"),
        (lambda doc: _set_field(doc, "central_chars",
                                {"z": {"subgroup": [0], "zeta": {"0": 0}, "multiplier": "2"}}),
         "central_chars['z'].multiplier must be"),
    ],
    ids=["size-null", "size-bool", "size-float", "order-string", "inverse-list",
         "inverse-bool", "prime-powers-list", "prime-key-word", "prime-key-float",
         "prime-image-string", "group-order-null", "root-order-bool", "group-order-float",
         "value-exponent-null", "value-numerator-float", "value-numerator-string",
         "value-triple-bools", "value-exponent-float", "generators-int", "generators-int-list",
         "subgroups-list", "subgroup-int", "subgroup-index-string", "central-list",
         "central-int", "central-subgroup-int", "zeta-list", "zeta-exponent-null",
         "multiplier-string"],
)
def test_group_spec_of_the_wrong_type_is_an_input_error(tmp_path, mutate, message):
    path = tmp_path / "types.json"
    path.write_text(json.dumps(mutate(dump_group_spec(get_group("S3")))))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--group", "S3", "--char", "chi3", "--degree", "-1"],
        ["decompose", "--group", "S3", "--char", "chi3", "--degree", str(MAX_DEGREE + 1)],
        ["genfun", "--group", "S3", "--char", "chi3", "--irr", "chi1", "--series", "-1"],
        ["genfun", "--group", "S3", "--char", "chi3", "--irr", "chi1",
         "--series", str(MAX_DEGREE + 1)],
        ["closedform", "--group", "S3", "--spec", "regular", "--degree", "-3"],
        ["closedform", "--group", "S3", "--spec", "regular", "--degree", str(MAX_DEGREE + 1)],
        ["verify", "--group", "S3", "--degree", "-1"],
        ["verify", "--group", "S3", "--degree", str(MAX_DEGREE + 1)],
    ],
    ids=["decompose-negative", "decompose-above", "series-negative", "series-above",
         "closedform-negative", "closedform-above", "verify-negative", "verify-above"],
)
def test_degree_out_of_range_is_an_input_error(argv):
    code, out, err = run_cli(argv)
    assert code == EXIT_INPUT and out == ""
    assert f"must be in 0..{MAX_DEGREE}" in err and len(err.strip().splitlines()) == 1


def test_degree_cap_admits_the_cap():
    # every degree the tests, the demos and the benchmark use is below the cap
    assert MAX_DEGREE >= 300
    code, out, _ = run_cli(
        ["decompose", "--group", "S3", "--char", "chi3", "--degree", str(MAX_DEGREE)]
    )
    assert code == EXIT_OK
    # the symmetric powers of the 2-dimensional character of S3: S^n has
    # dimension n + 1, so the last row adds up to 1001 with weights 1, 1, 2
    last = [int(x) for x in out.strip().splitlines()[-1].split()]
    assert last[0] == MAX_DEGREE and last[1] + last[2] + 2 * last[3] == MAX_DEGREE + 1


def test_the_numerator_degree_certificate_exits_3(monkeypatch):
    # S3 chi3 has a Molien denominator of degree 5, so its symmetric form
    # reads S^0..S^4; S^4 plus the trivial character gives a numerator of
    # degree 4 > 5 - chi3(e)
    real = LambdaSequence.compute.__func__

    def bumped(cls, chi, M, expect_character=False):
        seq = real(cls, chi, M, expect_character)
        top = seq.syms[M] + ClassFunction.constant(chi.data, 1)
        return dataclasses.replace(seq, syms=seq.syms[:M] + (top,))

    monkeypatch.setattr(LambdaSequence, "compute", classmethod(bumped))
    code, out, err = run_cli(["genfun", "--group", "S3", "--char", "chi3", "--irr", "chi1"])
    assert code == EXIT_INTERNAL and out == ""
    assert err.splitlines() == [
        "internal error: chi1: the numerator over the Molien denominator has degree above 3"
    ]


@pytest.mark.parametrize(
    "delta", [Fraction(1, 2), Cyclotomic.root_of_unity(3)], ids=["non-integral", "non-rational"]
)
def test_certification_fault_exits_3_without_traceback(monkeypatch, delta):
    import symext.lambdaops as lambdaops

    real = lambdaops._scalar_syms

    def bumped(lam, M):
        # S^M moved at every class: its multiplicities stop being integers
        out = real(lam, M)
        out[M] = out[M] + delta
        return out

    monkeypatch.setattr(lambdaops, "_scalar_syms", bumped)
    code, out, err = run_cli(["decompose", "--group", "S3", "--char", "chi3", "--degree", "3"])
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: ") and len(err.strip().splitlines()) == 1
    assert "multiplicit" in err or "not rational" in err


def test_internal_fault_exits_3_without_traceback(monkeypatch):
    import symext.lambdaops as lambdaops

    real = lambdaops._scalar_syms

    def bumped(lam, M):
        out = real(lam, M)
        if M >= 2:
            out[M] = out[M] + 1
        return out

    monkeypatch.setattr(lambdaops, "_scalar_syms", bumped)
    code, out, err = run_cli(
        ["genfun", "--group", "S3", "--char", "chi3", "--irr", "chi1", "--check-consistency"]
    )
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_generators_route():
    code, out, _ = run_cli(["verify", "--generators", "(0 1);(0 1 2)"])
    assert code == EXIT_OK
    code, _, err = run_cli(
        ["decompose", "--generators", "(0 1)", "--char", "regular"]
    )
    assert code == EXIT_INPUT and "character table" in err
    code, _, err = run_cli(["decompose", "--char", "chi1"])
    assert code == EXIT_INPUT


def test_generators_combined_with_table():
    # generators supplied next to a builtin table attach a natural character
    code, out, _ = run_cli(
        ["decompose", "--group", "S3", "--generators", "(0 1);(0 1 2)",
         "--char", "natural", "--op", "ext", "--degree", "1"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[2].split() == ["1", "1", "0", "1"]
    code, _, err = run_cli(
        ["decompose", "--group", "S4", "--generators", "(0 1);(0 1 2)",
         "--char", "natural"]
    )
    assert code == EXIT_INPUT and "do not realize" in err


def test_natural_character_through_cli():
    code, out, _ = run_cli(
        ["decompose", "--group", "S4", "--char", "natural", "--op", "sym",
         "--degree", "2"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1].split() == ["0", "1", "0", "0", "0", "0"]


def test_verify_names_the_classes_without_a_closed_form(tmp_path):
    # zeta = 1 on A3, multiplier 1: at a transposition O_N = 2 does not divide
    # 1 and lambda_t is (1-t^2)^(1/2); the row checks the other classes and
    # the coprime-degree rule, and names C2
    doc = dump_group_spec(get_group("S3"))
    doc["normal_subgroups"] = {"A3": [0, 2]}
    doc["central_chars"] = {
        "z": {"subgroup": "A3", "zeta": {"0": 0, "2": 0}, "multiplier": 1}
    }
    path = tmp_path / "s3z.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["closedform", "--group", str(path), "--spec", "central:z"])
    assert code == EXIT_OK and "does not divide the multiplier 1 at C2" in out
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_OK and err == "" and "FAIL" not in out
    row = out.splitlines()[-1].split(maxsplit=2)
    assert row == ["central-forms:z", "ok", "no closed form at C2"]


@pytest.mark.parametrize("tamper", ["lambda_poly", "shortcut", "degree-bound"])
def test_closed_form_check_fails_on_a_wrong_form(monkeypatch, tamper):
    # S3/A3 to degree 10 (m = 2), and S3/1 to degree 4 (m = 6 > degree),
    # where lambda_t comes from the sequence extended past the degree to m
    s3 = get_group("S3")
    cases = [
        (burnside_regular_forms(s3.classes, subgroup_spec(s3.classes, idx)), degree)
        for idx, degree in (((0, 2), 10), ((0,), 4))
    ]
    for forms, degree in cases:
        assert cli._closed_form_check(forms, degree) == (True, "")
    if tamper == "degree-bound":
        # lambda^M replaced by chi: for S3/A3, M = 4 exceeds the degree 2 of Pi,
        # and the coprime-degree rule skips n = 4; for S3/1, M = m = 6 and
        # lambda^6 is the top coefficient of lambda_t
        real = LambdaSequence.compute

        def tampered(chi, M, expect_character=False):
            seq = real(chi, M, expect_character)
            return dataclasses.replace(seq, lambdas=seq.lambdas[:-1] + (chi,))

        monkeypatch.setattr(LambdaSequence, "compute", tampered)
    else:
        real = getattr(CentralForms, tamper)
        wrong = {"lambda_poly": lambda p: p[:-1] + [p[-1] + 1], "shortcut": lambda f: f * 2}
        monkeypatch.setattr(
            CentralForms, tamper, lambda self, *a: wrong[tamper](real(self, *a))
        )
    for forms, degree in cases:
        assert cli._closed_form_check(forms, degree)[0] is False


def test_closed_form_check_reads_lambda_t_off_its_one_sequence(monkeypatch):
    def no_char_poly(chi, c):
        raise AssertionError("char_poly called")

    monkeypatch.setattr(cli, "char_poly", no_char_poly)
    monkeypatch.setattr(lambdaops, "char_poly", no_char_poly)
    s3, hp3 = get_group("S3"), get_group("Hp", 3)
    for idx in ((0,), (0, 2)):
        forms = burnside_regular_forms(s3.classes, subgroup_spec(s3.classes, idx))
        assert cli._closed_form_check(forms, 10) == (True, "")
    for spec in central_characters("Hp", 3).values():
        assert cli._closed_form_check(central_forms(hp3.classes, spec), 6) == (True, "")


@pytest.mark.parametrize("where", ["flag", "spec"])
def test_generators_over_the_cap_are_an_input_error(tmp_path, where):
    gens = ["(0 1)", "(0 1 2 3 4 5 6 7)"]  # S8, over the enumeration cap
    argv = ["verify", "--generators", ";".join(gens)]
    if where == "spec":
        path = tmp_path / "s8.json"
        path.write_text(json.dumps(dump_group_spec(get_group("S3"), generators=gens)))
        argv = ["verify", "--group", str(path)]
    code, out, err = run_cli(argv)
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == ["error: generators: group order exceeds cap 20000"]


@pytest.mark.parametrize("fault", [NoModelError, RuntimeError])
def test_only_a_missing_model_is_skipped(monkeypatch, fault):
    def broken(family, param=None):
        raise fault("no model here")

    monkeypatch.setattr(cli, "get_perm_model", broken)
    code, out, err = run_cli(["verify", "--group", "S3"])
    if fault is NoModelError:
        assert code == EXIT_OK and err == ""
        assert "natural-character-periodic" not in out
        assert "permutation-model-classes" not in out
    else:
        assert code == EXIT_INTERNAL and out == ""
        assert err.splitlines() == ["internal error: no model here"]


def test_a_model_build_finds_the_classes_once(monkeypatch):
    calls = []
    real = permgroup._sorted_classes
    monkeypatch.setattr(permgroup, "_sorted_classes", lambda g: calls.append(g) or real(g))
    ctx = cli.resolve_group(argparse.Namespace(group="S4", generators=None))
    assert ctx.natural is not None and ctx.model is not None
    assert len(calls) == 1


@pytest.mark.parametrize(
    "gens",
    ["(0 -1)", "(0 1 2);(0 -1)", f"(0 {permgroup.MAX_POINTS})"],
    ids=["negative", "negative-beside-a-cycle", "above-the-cap"],
)
@pytest.mark.parametrize("group", [None, "S3"])
def test_points_outside_the_cap_are_an_input_error(gens, group):
    argv = ["verify", "--generators", gens] + (["--group", group] if group else [])
    code, out, err = run_cli(argv)
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [
        f"error: points must be in 0..{permgroup.MAX_POINTS - 1}: {gens.split(';')[-1][1:-1]!r}"
    ]


def test_the_point_cap_admits_the_cap():
    code, _, err = run_cli(["verify", "--generators", f"(0 {permgroup.MAX_POINTS - 1})"])
    assert code == EXIT_OK and err == ""


@pytest.mark.parametrize(
    "spec, message",
    [("regular:167", f"the multiplier 1002 is not in 1..{MAX_DEGREE}"),
     ("quotient:A3:501", f"the multiplier 1002 is not in 1..{MAX_DEGREE}"),
     ("regular:0", f"the multiplier 0 is not in 1..{MAX_DEGREE}"),
     ("regular:x", "m must be a positive integer"),
     ("regular:-1", "m must be a positive integer"),
     ("quotient:A3:2.5", "m must be a positive integer"),
     ("regular:", "m must be a positive integer")],
)
def test_closed_form_multiplier_outside_the_cap_is_an_input_error(spec, message):
    code, out, err = run_cli(["closedform", "--group", "S3", "--spec", spec, "--degree", "2"])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [f"error: {spec}: {message}"]


def test_closed_form_multiplier_cap_admits_the_cap():
    # m*|G/N| = 500*2 on S3/A3
    code, out, err = run_cli(
        ["closedform", "--group", "S3", "--spec", "quotient:A3:500", "--degree", "1"]
    )
    assert code == EXIT_OK and err == ""
    assert "(1-t^2)^500 = " in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decompose", "--group", "S3"], "the following arguments are required: --char"),
        (["decompose", "--group", "S3", "--char", "chi1", "--op", "both"],
         "argument --op: invalid choice"),
        (["verify", "--degree", "x"], "argument --degree: invalid int value: 'x'"),
    ],
    ids=["missing-flag", "bad-choice", "bad-integer"],
)
def test_flag_syntax_errors_are_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def _calls(monkeypatch, module, name) -> list:
    real = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_verify_reads_the_validation_done_at_load(monkeypatch):
    calls = []

    def counted(table):
        calls.append(table)
        return groupdata.validate_table(table)

    monkeypatch.setattr(catalog, "validate_table", counted)
    monkeypatch.setattr(cli, "validate_table", counted)
    catalog.get_group.cache_clear()
    code, out, err = run_cli(["verify", "--group", "D2n:6"])
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[1].split() == ["table-identities", "ok"]
    assert len(calls) == 1


def test_a_table_that_fails_validation_never_reaches_verify(monkeypatch):
    monkeypatch.setattr(catalog, "validate_table", lambda table: ["a planted problem"])
    catalog.get_group.cache_clear()
    code, out, err = run_cli(["verify", "--group", "S3"])
    assert code == EXIT_INTERNAL and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("internal error: ")


@pytest.mark.parametrize("spec", ["regular:1:junk", "quotient:V:1:junk", "onedim:chi2:junk"])
def test_trailing_spec_fields_are_an_input_error(spec):
    code, out, err = run_cli(["closedform", "--group", "S4", "--spec", spec])
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {spec}: spec selector must be regular[:m], ")


def test_an_irreducible_index_is_ascii_digits():
    # int() reads the Arabic-Indic digit one as 1
    code, out, err = run_cli(["genfun", "--group", "S3", "--char", "chi3", "--irr", "\u0661"])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [
        "error: unknown irreducible '\u0661'; available: chi1, chi2, chi3"
    ]


@pytest.mark.parametrize(
    "argv, models, centrals",
    [
        (["genfun", "--group", "S3", "--char", "regular", "--irr", "chi1"], 0, 0),
        (["decompose", "--group", "S4", "--char", "regular", "--degree", "3"], 0, 0),
        (["decompose", "--group", "Hp:3", "--char", "tau_1", "--degree", "3"], 0, 0),
        (["closedform", "--group", "S3", "--spec", "regular", "--degree", "3"], 0, 0),
        (["closedform", "--group", "Hp:3", "--spec", "central:zeta_1", "--degree", "3"], 0, 1),
        (["verify", "--group", "Hp:3", "--degree", "4"], 1, 1),
        (["decompose", "--group", "S4", "--char", "natural", "--degree", "2"], 1, 0),
        (["verify", "--group", "S4", "--generators", "(0 1);(0 1 2 3)"], 0, 1),
    ],
    ids=["genfun", "decompose-regular", "decompose-chi", "closedform-regular",
         "closedform-central", "verify", "natural", "generators-beside-a-table"],
)
def test_only_a_request_that_reads_the_model_builds_it(monkeypatch, argv, models, centrals):
    from symext import catalog

    model_calls = _calls(monkeypatch, cli, "get_perm_model")
    central_calls = _calls(monkeypatch, catalog, "central_characters")
    code, out, err = run_cli(argv)
    assert code == EXIT_OK and err == ""
    assert (len(model_calls), len(central_calls)) == (models, centrals)


@pytest.mark.parametrize(
    "fault, code, message",
    [(NoModelError, EXIT_INPUT, "error: no permutation model, so no natural character"),
     (RuntimeError, EXIT_INTERNAL, "internal error: model build failed")],
)
def test_a_model_fault_reaches_only_the_requests_that_read_the_model(
    monkeypatch, fault, code, message
):
    def broken(family, param=None):
        raise fault("model build failed")

    monkeypatch.setattr(cli, "get_perm_model", broken)
    got, out, err = run_cli(["genfun", "--group", "S3", "--char", "regular", "--irr", "chi1"])
    assert got == EXIT_OK and err == "" and out
    got, out, err = run_cli(["decompose", "--group", "S3", "--char", "natural"])
    assert got == code and out == ""
    assert err.splitlines() == [message]


LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (["closedform", "--group", "S3", "--spec", f"regular:{LONG}"],
         f"--spec m has more than {permgroup.MAX_DIGITS} digits"),
        (["verify", "--generators", f"(0 {LONG})"],
         f"a cycle point has more than {permgroup.MAX_DIGITS} digits"),
    ],
    ids=["multiplier", "cycle-point"],
)
def test_an_over_long_integer_flag_is_one_line(argv, message):
    code, out, err = run_cli(argv)
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_the_digit_cap_admits_the_cap():
    m = "0" * (permgroup.MAX_DIGITS - 1) + "2"
    code, out, err = run_cli(["closedform", "--group", "S3", "--spec", f"regular:{m}"])
    assert code == EXIT_OK and err == "" and "(1+t)^12 = " in out


def _set_zeta_key(doc, key):
    doc["central_chars"] = {"z": {"subgroup": [0, 2], "zeta": {"0": 0, key: 0}}}
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: _set_power(doc, 2, LONG, 0),
         f"classes[2].prime_powers key has more than {permgroup.MAX_DIGITS} digits"),
        (lambda doc: _set_zeta_key(doc, "x"), "central_chars['z'].zeta: key 'x' is not a class index"),
        (lambda doc: _set_zeta_key(doc, LONG),
         f"central_chars['z'].zeta key has more than {permgroup.MAX_DIGITS} digits"),
    ],
    ids=["prime-key", "zeta-key-word", "zeta-key-long"],
)
def test_a_spec_file_key_that_is_no_integer_is_one_line(tmp_path, mutate, message):
    path = tmp_path / "keys.json"
    path.write_text(json.dumps(mutate(dump_group_spec(get_group("S3")))))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [f"error: {path}: {message}"]


def test_an_over_long_integer_in_a_spec_file_is_one_line(tmp_path):
    # json.load raises a plain ValueError past Python's integer digit limit
    doc = dump_group_spec(get_group("S3"))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace(f'"order": {doc["order"]}', f'"order": {LONG}'))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
