import argparse
import contextlib
import dataclasses
import functools
import gc
import io
import json
from fractions import Fraction
from math import gcd

import pytest

from oracle_utils import cyclic_spec, with_syms
from symext import catalog, checks, cli, groupdata, lambdaops, permgroup
from symext.catalog import (
    MAX_CLASSES,
    MAX_DEGREE,
    MAX_ROOT_ORDER,
    InputError,
    NoModelError,
    central_characters,
    dump_group_spec,
    get_group,
    load_group_spec,
)
from symext.closedforms import (
    CentralForms,
    MapInconsistentError,
    burnside_regular_forms,
    central_forms,
    subgroup_spec,
)
from symext.genfun import MultiplicityTable
from symext.groupdata import ClassFunction, regular_character
from symext.lambdaops import LambdaSequence
from symext.exactnum import Cyclotomic, primes_below
from symext.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VERIFY,
    OutputDocument,
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


@pytest.mark.parametrize(
    "selector, message",
    [("D2n:1_0", "bad group parameter in 'D2n:1_0'"),
     ("D2n: 8", "bad group parameter in 'D2n: 8'"),
     ("D2n:+8", "bad group parameter in 'D2n:+8'"),
     ("D2n:\u0668", "bad group parameter in 'D2n:\u0668'"),
     ("D2n:", "bad group parameter in 'D2n:'"),
     ("D2n:" + "1" * 19, f"group parameter in 'D2n:{'1' * 19}' has more than 18 digits")],
    ids=["underscore", "space", "plus", "arabic-indic-eight", "empty", "too-many-digits"],
)
def test_a_group_parameter_is_ascii_digits(selector, message):
    # int() reads the first four as 10, 8, 8 and 8
    code, out, err = run_cli(["decompose", "--group", selector, "--char", "natural", "--degree", "1"])
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")


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
        cli, "verify_checks", lambda ctx, degree: [
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


def _row(out, name):
    return next(ln.split() for ln in out.splitlines() if ln.startswith(name + " "))


@pytest.mark.parametrize("family, param", [("Q4n", 7), ("Hp", 5)])
def test_verify_catches_a_wrong_image_that_compute_and_the_check_share(monkeypatch, family, param):
    # images of irreducible values stay right, so galois_orbits still finds every
    # chi compatible, but compute writes and power_sum_check reads S^n images
    # that are the representative's value; certify's reconstruction sees it
    table = get_group(family, param)
    known = {(v.order, tuple(v.num), v.den) for chi in table.irreducibles for v in chi.values}
    real = groupdata.ClassData.galois_image

    def shared(self, v, u):
        if v.is_rational() or (v.order, tuple(v.num), v.den) in known:
            return real(self, v, u)
        return v

    monkeypatch.setattr(groupdata.ClassData, "galois_image", shared)
    code, out, _ = run_cli(["verify", "--group", f"{family}:{param}"])
    assert code == EXIT_VERIFY
    row = _row(out, "dual-route-coefficients")
    assert row[1] == "FAIL" and "power-sum route" not in " ".join(row)


def test_verify_runs_the_regular_lambda_recurrence_once_per_psi_sequence(monkeypatch):
    # D2n:50: 28 classes in 8 rational classes, whose representatives have 6
    # distinct psi-sequences of the regular character to |G| = 100.  The
    # product-form row and the trivial quotient row read one share, and no
    # row calls char_poly
    def no_char_poly(chi, c):
        raise AssertionError("char_poly called")

    monkeypatch.setattr(lambdaops, "char_poly", no_char_poly)
    calls, real = [], lambdaops._scalar_lambdas
    monkeypatch.setattr(lambdaops, "_scalar_lambdas",
                        lambda psi, M: calls.append(M) or real(psi, M))
    code, _, _ = run_cli(["verify", "--group", "D2n:50"])
    assert code == EXIT_OK
    cd = get_group("D2n", 50).classes
    reg = regular_character(cd)
    reps = {r for r, _ in cd.rational_classes()[0]}
    psis = {tuple(reg.values[cd.power_map(n)[r]].to_rational()
                  for n in range(1, cd.group_order + 1)) for r in reps}
    assert len(reps) == 8 and len(psis) == 6
    assert calls.count(cd.group_order) == 6


def test_regular_product_form_compares_every_class(monkeypatch):
    cd = get_group("D2n", 12).classes
    c0 = next(c for c, (r, _) in enumerate(cd.rational_classes()[0]) if r != c)
    real = checks.expand_product_form

    def wrong(pf, c, degree):
        out = real(pf, c, degree)
        return out[:-1] + [out[-1] + 1] if c == c0 else out

    monkeypatch.setattr(checks, "expand_product_form", wrong)
    code, out, _ = run_cli(["verify", "--group", "D2n:12"])
    assert code == EXIT_VERIFY
    assert _row(out, "regular-product-form")[1] == "FAIL"


@pytest.mark.parametrize("tamper, failing", [
    ("series", ["regular-product-form", "quotient-permutation-forms:trivial"]),
    ("lambda_poly", ["quotient-permutation-forms:trivial"]),
    ("expand_product_form", ["regular-product-form"]),
])
def test_both_regular_rows_bite_through_the_shared_series(monkeypatch, tamper, failing):
    # D2n:12: the trivial quotient's m*zeta_0 is the regular character, so its
    # row reads lambda to |G| = 24 off the entries the product-form row filled.
    # A lambda^1 planted at the identity's entry runs once and fails both rows;
    # a wrong closed form or a wrong expansion fails its own row alone
    order, planted = 24, []
    if tamper == "series":
        real = lambdaops._scalar_lambdas

        def wrong(psi, M):
            lam = real(psi, M)
            if M != order or psi[1] != order:  # the identity, the only class of value |G|
                return lam
            planted.append(M)
            return lam[:1] + [lam[1] + 1] + lam[2:]

        monkeypatch.setattr(lambdaops, "_scalar_lambdas", wrong)
    elif tamper == "lambda_poly":
        real = CentralForms.lambda_poly

        def wrong(self, c):
            p = real(self, c)
            return p[:-1] + [p[-1] + 1] if self.spec.multiplier == order else p

        monkeypatch.setattr(CentralForms, "lambda_poly", wrong)
    else:
        real = checks.expand_product_form
        monkeypatch.setattr(checks, "expand_product_form",
                            lambda pf, c, degree: [v + 1 for v in real(pf, c, degree)])
    code, out, _ = run_cli(["verify", "--group", "D2n:12"])
    assert code == EXIT_VERIFY
    rows = [ln.split() for ln in out.splitlines()]
    assert [r[0] for r in rows if r[1:2] == ["FAIL"]] == failing
    assert len(planted) == (tamper == "series")


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


def _set_inverses(doc, images):
    for cls, image in zip(doc["classes"], images):
        cls["inverse"] = image
    return doc


def _copy_column(doc, src, dst):
    for irr in doc["irreducibles"]:
        irr["values"][dst] = irr["values"][src]
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


def test_a5_at_root_order_60_decomposes_as_the_builtin(tmp_path):
    # every value is stored at order 60 above the exponent 30, so no row is
    # Galois compatible and the trace candidate runs over every class
    path = tmp_path / "a5.json"
    path.write_text(json.dumps(_at_root_order(dump_group_spec(get_group("A5")), 2)))
    table = load_group_spec(str(path)).table
    assert all(v.order == 60 for chi in table.irreducibles for v in chi.values)
    assert groupdata.decompose(table.irreducibles[3] * 2, table) == (0, 0, 0, 2, 0)
    assert table._packed.trace_weights(table)[1] == list(range(5))
    for char, op in [("chi4", "sym"), ("chi5", "ext"), ("regular", "sym")]:
        outs = [run_cli(["decompose", "--group", group, "--char", char, "--op", op, "--degree", "12"])
                for group in (str(path), "A5")]
        assert outs[0] == outs[1] and outs[0][0] == EXIT_OK


@pytest.mark.parametrize("n, root, dumped", [(8, 16, 16), (2, 4, 2)], ids=["C8-at-16", "C2-at-4"])
def test_a_table_stored_above_its_exponent_dumps_and_reloads_equal(tmp_path, n, root, dumped):
    # C8's values stay at order 16, and every value of C2 is rational
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(cyclic_spec(n, root)))
    table = load_group_spec(str(path)).table
    doc = dump_group_spec(table)
    assert doc["root_order"] == dumped
    path.write_text(json.dumps(doc))
    assert load_group_spec(str(path)).table == table


def test_each_table_builds_one_value_interner(monkeypatch, tmp_path):
    # the interner that assembly builds for the power maps is the one that
    # validation, character orbits and the one-dimensional forms read
    built, tables = [], []
    cols_init, table_init = groupdata._Columns.__init__, groupdata.CharacterTable.__init__
    monkeypatch.setattr(groupdata._Columns, "__init__",
                        lambda self, *a: built.append(self) or cols_init(self, *a))
    monkeypatch.setattr(groupdata.CharacterTable, "__init__",
                        lambda self, *a, **kw: tables.append(self) or table_init(self, *a, **kw))
    monkeypatch.setattr(catalog, "get_group", functools.lru_cache(catalog.get_group.__wrapped__))
    path = tmp_path / "c8.json"
    path.write_text(json.dumps(cyclic_spec(8, 16)))
    for group in ("D2n:50", str(path)):
        for argv in (["verify", "--group", group],
                     ["closedform", "--group", group, "--spec", "onedim:chi2", "--degree", "3"]):
            code, out, err = run_cli(argv)
            assert code == EXIT_OK and "FAIL" not in out and err == ""
    assert len(tables) == 3 and [t._columns for t in tables] == built


def _a4_with_power(images):
    doc = dump_group_spec(get_group("A4"))
    for c, (key, image) in images.items():
        doc["classes"][c]["prime_powers"][key] = image
    return doc


@pytest.mark.parametrize(
    "doc, prime",
    [
        # g^5 = g^-1 swaps the two classes of 3-cycles
        (_a4_with_power({c: ("5", c) for c in range(4)}), 5),
        (_a4_with_power({2: ("2", 2), 3: ("2", 3)}), 2),
    ],
    ids=["identity-5-map", "3-cycles-squared-to-themselves"],
)
def test_a_power_map_that_breaks_the_galois_action_is_an_input_error(tmp_path, doc, prime):
    path = tmp_path / "a4.json"
    path.write_text(json.dumps(doc))
    for argv in (["genfun", "--char", "chi2", "--irr", "1", "--series", "7"], ["verify"]):
        code, out, err = run_cli(argv + ["--group", str(path)])
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: {path}: {prime}-power map at C3 disagrees with the character table\n"


@pytest.mark.parametrize(
    "family, param",
    [(f, None) for f in catalog.FIXED_FAMILIES] + list(catalog.PARAM_CAPS.items()),
)
def test_a_dumped_builtin_with_its_unit_prime_maps_verifies_as_the_builtin(tmp_path, family, param):
    table = get_group(family, param)
    doc = dump_group_spec(table)
    for c, cls in enumerate(doc["classes"]):
        cls["prime_powers"] = {str(p): m[c] for p, m in table.classes.prime_power_maps.items()}
    path = tmp_path / "builtin.json"
    path.write_text(json.dumps(doc))
    assert load_group_spec(str(path)).table == table
    reports = []
    for group in (str(path), f"{family}:{param}" if param else family):
        code, out, err = run_cli(["verify", "--group", group, "--degree", "3", "--format", "machine"])
        assert code == EXIT_OK and err == ""
        reports.append({r["check"]: r for r in json.loads(out)["payload"]["checks"]})
    spec, builtin = reports
    assert all(r["ok"] and builtin[name] == r for name, r in spec.items())


def test_a_100_class_cyclic_spec_takes_one_galois_per_value_and_prime(tmp_path, monkeypatch):
    n = 100
    classes = [{"name": f"g{i}", "size": 1, "rep_order": n // gcd(i, n), "inverse": -i % n,
                "prime_powers": {"2": 2 * i % n, "5": 5 * i % n}} for i in range(n)]
    irreducibles = [{"values": [[[i * j % n, 1, 1]] for i in range(n)]} for j in range(n)]
    path = tmp_path / "c100.json"
    path.write_text(json.dumps({"format_version": 1, "name": "C100", "order": n,
                                "root_order": n, "classes": classes,
                                "irreducibles": irreducibles}))
    calls = _calls(monkeypatch, Cyclotomic, "galois")
    table = load_group_spec(str(path)).table
    irrational = {chi.values[c].num for chi in table.irreducibles for c in range(n)
                  if not chi.values[c].is_rational()}
    # one image per distinct irrational value and unit: the 23 unit primes
    # below 100, and units 7, 9 and 27 for the declared 2- and 5-maps' check;
    # one conjugate per value (239,220 calls when every table value was
    # mapped for every class)
    units = [p for p in primes_below(n + 1) if n % p] + [7, 9, 27]
    assert len(calls) <= len(irrational) * (len(units) + 1)
    assert table.classes.prime_power_maps[3] == tuple(3 * i % n for i in range(n))


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
        (lambda doc: {**doc, "classes": doc["classes"] * (MAX_CLASSES // 3 + 1)},
         f"at most {MAX_CLASSES} classes"),
        (lambda doc: _set_field(doc, "root_order", 0), f"root_order must be in 1..{MAX_ROOT_ORDER}"),
        (lambda doc: _set_field(doc, "root_order", 6 * (MAX_ROOT_ORDER // 6 + 1)),
         f"root_order must be in 1..{MAX_ROOT_ORDER}"),
        (lambda doc: _set_multiplier(doc, MAX_DEGREE + 1),
         f"multiplier: the multiplier {MAX_DEGREE + 1} is not in 1..{MAX_DEGREE}"),
        (lambda doc: _set_multiplier(doc, 0),
         f"multiplier: the multiplier 0 is not in 1..{MAX_DEGREE}"),
        (lambda doc: _set_class_field(doc, 2, "size", 3),
         "class sizes do not sum to the group order"),
        (lambda doc: _set_class_field(doc, 0, "rep_order", 2),
         "class 0 is not a size-1 identity class of order 1"),
        (lambda doc: _set_inverses(doc, [1, 2, 0]), "inverse_class is not an involution at C1"),
        (lambda doc: _set_field(doc, "order", 9), "exponent does not divide the group order"),
        (lambda doc: _set_field(doc, "order", 0), "order must be positive"),
        (lambda doc: _set_field(doc, "order", -6), "order must be positive"),
        (lambda doc: _set_power(doc, 0, "3", 1), "3-power map does not fix the identity class"),
        (lambda doc: _set_power(doc, 2, "2", 1), "2-power map sends C3 to a class of wrong order"),
        (lambda doc: _copy_column(doc, 2, 1),
         "5-power image of class 1 is not determined by the table"),
    ],
    ids=["inverse-too-large", "inverse-negative", "prime-power-image", "no-classes",
         "zero-size", "zero-order", "too-many-classes", "zero-root-order", "root-order-above-cap",
         "multiplier-above-cap", "multiplier-zero", "sizes-sum", "class-0-not-identity",
         "inverse-not-involution", "exponent-not-dividing", "zero-group-order",
         "negative-group-order", "power-moves-identity",
         "power-to-wrong-order", "equal-columns"],
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


@pytest.mark.parametrize("key, images", [("0", [0] * 5), ("1", [0, 1, 2, 3, 4]),
                                         ("4", [0, 0, 2, 0, 0])])
def test_a_prime_powers_key_that_is_no_prime_is_an_input_error(tmp_path, key, images):
    # each map is S4's true key-th power map, so only the key is wrong
    doc = dump_group_spec(get_group("S4"))
    for cls, image in zip(doc["classes"], images):
        cls["prime_powers"][key] = image
    path = tmp_path / "key.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {path}: classes[0].prime_powers: key {key!r} is not a prime\n"


@pytest.mark.parametrize("field, first, second", [
    ("prime_powers", ("2", 4), ("02", 1)), ("prime_powers", ("02", 1), ("2", 4)),
    ("zeta", ("4", 6), ("04", 0)), ("zeta", ("04", 0), ("4", 6)),
])
def test_a_spec_key_that_repeats_a_prime_or_a_class_is_an_input_error(
        tmp_path, field, first, second):
    # "2" and "02" name one prime of S4's C4, "4" and "04" one class of a
    # central character: in either key order the file is an input error,
    # where a silent overwrite would let the later key win
    doc = dump_group_spec(get_group("S4"))
    if field == "prime_powers":
        doc["classes"][3]["prime_powers"] = dict([first, second, ("3", 3)])
        message = f"classes[3].prime_powers: key {second[0]!r} repeats the prime 2"
    else:
        doc["central_chars"] = {"z": {"subgroup": [0, 4], "zeta": dict([("0", 0), first, second])}}
        message = f"central_chars['z'].zeta: key {second[0]!r} repeats the class 4"
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["closedform", "--group", str(path), "--spec", "central:z"])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [f"error: {path}: {message}"]


@pytest.mark.parametrize("where, first, second", [
    ("prime_powers", 4, 1), ("prime_powers", 1, 4), ("order", 24, 12),
])
def test_a_literally_repeated_json_key_is_an_input_error(tmp_path, where, first, second):
    # json.load keeps the last of two equal keys: with C4's "2" written
    # 4 then 1 verify exited 2 (a wrong 2-power map), with 1 then 4 it
    # exited 0; a repeated top-level "order" was read the same way
    doc = dump_group_spec(get_group("S4"))
    if where == "prime_powers":
        doc["classes"][3]["prime_powers"] = {"2": first, "REPEAT": second, "3": 3}
        key = "2"
    else:
        doc = {**doc, "order": first, "REPEAT": second}
        key = "order"
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc).replace('"REPEAT"', json.dumps(key)))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [f"error: {path}: key {key!r} repeats in one JSON object"]


@pytest.mark.parametrize("argv", [
    ["decompose", "--char", "chi3", "--op", "ext", "--degree", "3"],
    ["genfun", "--char", "chi3", "--irr", "chi1"],
    ["closedform", "--spec", "regular"],
    ["verify"],
], ids=["decompose", "genfun", "closedform", "verify"])
def test_a_wrong_power_map_of_a_dividing_prime_is_an_input_error(tmp_path, argv):
    # S4's 4-cycles square to the transpositions instead of the double
    # transpositions, a class of the same order: the table and the unit-prime
    # maps still check out, but psi^2 of chi2, chi3 and chi5 is no virtual
    # character (decompose exited 3 on it, with a multiplicity of -1/4)
    doc = dump_group_spec(get_group("S4"))
    doc["classes"][3]["prime_powers"]["2"] = 1
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(argv + ["--group", str(path)])
    assert code == EXIT_INPUT and out == ""
    assert err == (f"error: {path}: psi^2 of chi2 is no virtual character, so the 2-power map"
                   ' (prime_powers "2") is wrong\n')


PLANT_GROUPS = [("S3", None), ("A4", None), ("S4", None), ("A5", None), ("G21", None),
                ("D2n", 5), ("D2n", 6), ("Q4n", 3), ("Q4n", 4), ("Hp", 3)]


def moved_prime_power_entries():
    """(where, doc) for every builtin dump of PLANT_GROUPS with one
    prime_powers entry, of a prime dividing |G|, moved to another class of
    the same order as its true image."""
    for family, param in PLANT_GROUPS:
        cd = get_group(family, param).classes
        for p, m in sorted(cd.prime_power_maps.items()):
            if cd.group_order % p:
                continue
            for c, image in enumerate(m):
                for other in range(cd.class_count):
                    if other != image and cd.rep_orders[other] == cd.rep_orders[image]:
                        doc = dump_group_spec(get_group(family, param))
                        doc["classes"][c]["prime_powers"][str(p)] = other
                        yield f"{family}:{param} {cd.names[c]}^{p} -> {cd.names[other]}", doc


def test_a_moved_prime_power_entry_is_an_input_error_or_no_wrong_answer(tmp_path):
    # a wrong map that loads gives answers certified against the stated maps,
    # so each plant is exit 2 at load or else never exit 3
    path = tmp_path / "plant.json"
    plants = list(moved_prime_power_entries())
    assert len(plants) == 29
    for where, doc in plants:
        path.write_text(json.dumps(doc))
        try:
            irr, chi = load_group_spec(str(path)).table.labels[:2]
        except InputError:
            continue
        for argv in (["verify"], ["decompose", "--char", chi, "--op", "sym", "--degree", "4"],
                     ["genfun", "--char", chi, "--irr", irr]):
            assert run_cli(argv + ["--group", str(path)])[0] != EXIT_INTERNAL, (where, argv)


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
        return with_syms(seq, seq.syms[:M] + (top,))

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


def test_genfun_series_exits_3_when_a_decomposition_is_not_certified(monkeypatch):
    # every series coefficient goes through decompose's reconstruction certificate
    monkeypatch.setattr(groupdata, "_certified", lambda *args: None)
    code, out, err = run_cli(
        ["genfun", "--group", "S3", "--char", "chi3", "--irr", "chi1", "--series", "5"]
    )
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: ") and len(err.strip().splitlines()) == 1


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


@pytest.mark.parametrize("owner, name, group", [(MultiplicityTable, "certify", "S3"),
                                                (checks, "quotient_pullback", "S4")])
def test_a_fault_inside_verify_that_is_no_verdict_exits_3(monkeypatch, owner, name, group):
    monkeypatch.setattr(owner, name, _raise(TypeError("simulated bug")))
    code, out, err = run_cli(["verify", "--group", group])
    assert code == EXIT_INTERNAL and out == ""
    assert err.splitlines() == ["internal error: simulated bug"]


def test_an_inconsistent_quotient_map_is_a_failed_row(monkeypatch):
    monkeypatch.setattr(checks, "quotient_pullback", _raise(MapInconsistentError(["moved"])))
    code, out, _ = run_cli(["verify", "--group", "S4"])
    assert code == EXIT_VERIFY
    row = next(ln.split() for ln in out.splitlines() if ln.startswith("quotient-transfer:V "))
    assert row == ["quotient-transfer:V", "FAIL", "moved"]


def _transfer_row(out):
    return next(ln.split() for ln in out.splitlines() if ln.startswith("quotient-transfer:V "))


def test_a_quotient_irreducible_that_pulls_back_to_no_row_fails_the_transfer(monkeypatch):
    # chi1 + chi2 of S3 in place of chi3: a character whose powers still commute
    # with the pullback, and whose inner products still transfer, but whose
    # pullback chi1 + chi2 of S4 is no row, so the decomposition would not
    s3, qmap = catalog.quotient_transfers("S4")["V"]
    chi1, chi2, _ = s3.irreducibles
    fake = groupdata.CharacterTable(s3.classes, [chi1, chi2, chi1 + chi2], s3.labels, "S3")
    monkeypatch.setattr(catalog, "quotient_transfers", lambda *a: {"V": (fake, qmap)})
    code, out, _ = run_cli(["verify", "--group", "S4"])
    assert code == EXIT_VERIFY
    assert _transfer_row(out) == ["quotient-transfer:V", "FAIL"]


def test_a_moved_power_of_a_pulled_character_fails_the_transfer(monkeypatch):
    # S^3 of the pullback chi5 of S3's chi3 moved at one class on the S4 side;
    # the dual-route row passes a share, so only the transfer row sees it
    chi5, real = get_group("S4").character("chi5"), LambdaSequence.compute

    class Moved(LambdaSequence):
        @classmethod
        def compute(cls, chi, M, expect_character=False, share=None):
            seq = real(chi, M, expect_character, share)
            if share is not None or chi != chi5:
                return seq
            syms = list(seq.syms)
            syms[3] = ClassFunction(chi.data, [syms[3].values[0] + 1, *syms[3].values[1:]])
            return with_syms(seq, syms)

    monkeypatch.setattr(checks, "LambdaSequence", Moved)
    code, out, _ = run_cli(["verify", "--group", "S4"])
    assert code == EXIT_VERIFY
    rows = [ln.split() for ln in out.splitlines()]
    assert [r[0] for r in rows if r[1:2] == ["FAIL"]] == ["quotient-transfer:V"]


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
        assert checks.closed_form_check(forms, degree) == (True, "")
    if tamper == "degree-bound":
        # lambda^M replaced by chi: for S3/A3, M = 4 exceeds the degree 2 of Pi,
        # and the coprime-degree rule skips n = 4; for S3/1, M = m = 6 and
        # lambda^6 is the top coefficient of lambda_t
        real = LambdaSequence.compute

        def tampered(chi, M, expect_character=False, **kwargs):
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
        assert checks.closed_form_check(forms, degree)[0] is False


def test_closed_form_check_reads_lambda_t_off_its_one_sequence(monkeypatch):
    def no_char_poly(chi, c):
        raise AssertionError("char_poly called")

    monkeypatch.setattr(lambdaops, "char_poly", no_char_poly)
    s3, hp3 = get_group("S3"), get_group("Hp", 3)
    for idx in ((0,), (0, 2)):
        forms = burnside_regular_forms(s3.classes, subgroup_spec(s3.classes, idx))
        assert checks.closed_form_check(forms, 10) == (True, "")
    for spec in central_characters("Hp", 3).values():
        assert checks.closed_form_check(central_forms(hp3.classes, spec), 6) == (True, "")


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
    field = f"{path}: generators" if where == "spec" else "generators"
    assert err.splitlines() == [f"error: {field}: group order exceeds cap 20000"]


@pytest.mark.parametrize("gens, flag_line, spec_line", [
    ([" ", ""], "no generators given", "generators are all blank"),
    (["(0 1"], "unparsed cycle text: '(0 1'", "generators: unparsed cycle text: '(0 1'"),
])
def test_a_spec_files_generator_errors_name_the_file(tmp_path, gens, flag_line, spec_line):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(dump_group_spec(get_group("S3"), generators=gens)))
    for argv, line in ((["--group", str(path)], f"{path}: {spec_line}"),
                       (["--generators", ";".join(gens)], flag_line)):
        code, out, err = run_cli(["verify", *argv])
        assert (code, out, err.splitlines()) == (EXIT_INPUT, "", [f"error: {line}"])


@pytest.mark.parametrize("fault", [NoModelError, RuntimeError])
def test_only_a_missing_model_is_skipped(monkeypatch, fault):
    def broken(family, param=None):
        raise fault("no model here")

    monkeypatch.setattr(catalog, "get_perm_model", broken)
    code, out, err = run_cli(["verify", "--group", "S3"])
    if fault is NoModelError:
        assert code == EXIT_OK and err == ""
        assert "natural-character-periodic" not in out
        assert "permutation-model-classes" not in out
    else:
        assert code == EXIT_INTERNAL and out == ""
        assert err.splitlines() == ["internal error: no model here"]


def test_a_model_build_finds_the_classes_once(monkeypatch):
    catalog.get_perm_model.cache_clear()  # a fresh build, not the process's cached model
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


# verify's report on a group generated without a table
GENERATED_REPORT = (
    "check                       status  detail\n"
    "class-data-structure        ok\n"
    "power-map-composition       ok\n"
    "regular-character-periodic  ok\n"
    "regular-product-form        ok\n"
    "natural-character-periodic  ok\n"
)


def test_the_point_cap_admits_the_cap():
    # an order-2 group on 1000 points, with a base of one point
    code, out, err = run_cli(["verify", "--generators", f"(0 {permgroup.MAX_POINTS - 1})"])
    assert code == EXIT_OK and err == "" and out == GENERATED_REPORT


def test_the_trivial_group_of_degree_1_verifies():
    # one point and an empty base; a product of degree 1 is one image
    code, out, err = run_cli(["verify", "--generators", "()"])
    assert code == EXIT_OK and err == "" and out == GENERATED_REPORT


def test_hp11_is_realized_by_its_affine_action_on_121_points():
    # the builtin model of Hp:11 acts on 1,331 points, more than a cycle string
    # can name; (u, v) -> (u + 1, v) and (u, v) -> (u, v + u) on F_11^2 is faithful
    p = 11
    shift = permgroup.Permutation([(i + p) % p**2 for i in range(p**2)])
    shear = permgroup.Permutation([i - i % p + (i + i // p) % p for i in range(p**2)])
    ctx = cli.resolve_group(argparse.Namespace(group="Hp:11", generators=f"{shift!r};{shear!r}"))
    assert ctx.model.group.degree == p**2 and len(ctx.model.group) == p**3


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


def _s3_spec_named(tmp_path, names):
    doc = dump_group_spec(get_group("S3"))
    for irr, name in zip(doc["irreducibles"], names):
        irr["name"] = name
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    return path


def test_an_irreducible_label_with_a_colon_is_an_input_error(tmp_path):
    # closedform's onedim:<label> selector splits on ':', so it could not name it
    path = _s3_spec_named(tmp_path, ["chi1", "sgn:1", "chi3"])
    code, out, err = run_cli(["decompose", "--group", str(path), "--char", "sgn:1"])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [
        f"error: {path}: irreducibles[1]: "
        "name 'sgn:1' must not contain ':' or be regular or natural"
    ]


def test_a_repeated_irreducible_label_is_an_input_error(tmp_path):
    # --irr chi2 and --char chi2 would silently take the first
    path = _s3_spec_named(tmp_path, ["chi1", "chi2", "chi2"])
    code, out, err = run_cli(["genfun", "--group", str(path), "--char", "chi2", "--irr", "chi2"])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [
        f"error: {path}: irreducibles[2]: name 'chi2' repeats irreducibles[1]"
    ]


@pytest.mark.parametrize("name", ["regular", "natural"])
def test_an_irreducible_label_naming_a_standard_character_is_an_input_error(tmp_path, name):
    # --char regular and --char natural select the standard characters, never the label
    path = _s3_spec_named(tmp_path, ["chi1", name, "chi3"])
    code, out, err = run_cli(["decompose", "--group", str(path), "--char", name])
    assert code == EXIT_INPUT and out == ""
    assert err.splitlines() == [
        f"error: {path}: irreducibles[1]: "
        f"name '{name}' must not contain ':' or be regular or natural"
    ]


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

    model_calls = _calls(monkeypatch, catalog, "get_perm_model")
    central_calls = _calls(monkeypatch, catalog, "central_characters")
    code, out, err = run_cli(argv)
    assert code == EXIT_OK and err == ""
    assert (len(model_calls), len(central_calls)) == (models, centrals)


def test_the_permutation_model_is_built_once_per_process(monkeypatch):
    catalog.get_perm_model.cache_clear()
    calls = _calls(monkeypatch, catalog, "enumerate_group")
    first, second = run_cli(["verify", "--group", "S4"]), run_cli(["verify", "--group", "S4"])
    assert first == second and first[0] == EXIT_OK and first[2] == ""
    assert len(calls) == 1


def test_a_central_closed_form_builds_only_the_spec_it_names(monkeypatch):
    specs = _calls(monkeypatch, catalog, "central_char_spec")
    argv = ["closedform", "--group", "Hp:7", "--spec", "central:zeta_3", "--degree", "8"]
    code, out, err = run_cli(argv)
    assert code == EXIT_OK and err == "" and "extended by zero" in out
    assert len(specs) == 1 and specs[0][2][1] == Cyclotomic.root_of_unity(7, 3)
    # an unknown name is listed against every spec, as before
    code, out, err = run_cli(argv[:4] + ["central:zeta_7"])
    names = ", ".join(f"zeta_{s}" for s in range(1, 7))
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: central:<name> with name one of: {names}\n"


@pytest.mark.parametrize("group", ["S4", "A5", "D2n:5"])
def test_a_group_without_central_specs_says_so_in_one_line(group):
    for spec in ("central:x", "central"):
        code, out, err = run_cli(["closedform", "--group", group, "--spec", spec])
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: group {group} has no central:<name> spec\n"


def test_verify_compares_each_series_entry_once(monkeypatch):
    # D2n:50 at the default degree 10: the dual-route row's 28 irreducibles
    # read 784 class columns but 29 share entries, and power_sum_check
    # compares S^1..S^10 of each entry with its power-sum series once
    real_eq, real_check, inside, calls = Cyclotomic.__eq__, checks.power_sum_check, [], []

    def counted_eq(a, b):
        calls.extend(inside)
        return real_eq(a, b)

    def check(seq):
        inside.append(seq)
        try:
            real_check(seq)
        finally:
            inside.clear()

    monkeypatch.setattr(Cyclotomic, "__eq__", counted_eq)
    monkeypatch.setattr(checks, "power_sum_check", check)
    code, out, _ = run_cli(["verify", "--group", "D2n:50"])
    assert code == EXIT_OK and "FAIL" not in out
    shares = {id(seq.share) for seq in calls}
    assert len(shares) == 1 and len(calls) == 290 == 29 * 10
    assert len(calls[0].share.compared) == 29


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

    monkeypatch.setattr(catalog, "get_perm_model", broken)
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


def test_successive_main_calls_with_different_subcommands_are_independent():
    # the parser is built once per process, so no flag of one call may reach
    # the next: the same calls in the opposite order give the same results
    decompose = ["decompose", "--group", "S3", "--char", "chi3"]
    calls = [decompose + ["--op", "ext", "--degree", "2", "--format", "csv"],
             ["verify", "--group", "S3"], decompose]
    results = [run_cli(argv) for argv in calls]
    assert [run_cli(argv) for argv in reversed(calls)] == results[::-1]
    # the last call has the defaults back: --op sym, --degree 10, plain
    code, out, _ = results[2]
    assert code == EXIT_OK and len(out.strip().splitlines()) == 12
    assert out.splitlines()[2].split() == ["1", "0", "0", "1"]


def test_a_verify_leaves_no_cyclic_garbage():
    # with the collector off, a second verify must free all it made by
    # reference counts alone: no argparse parser per call, no self-referencing
    # search closure in the permutation model's class matching
    run_cli(["verify", "--group", "S4"])
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run_cli(["verify", "--group", "S4"])
        assert code == EXIT_OK and gc.collect() == 0
    finally:
        gc.enable()


def test_verify_runs_each_recurrence_once_per_psi_sequence(monkeypatch):
    # D2n:50 at degree 10: 224 (irreducible, representative) pairs, but 840
    # recurrences when each pair ran its own; the share is per request, so a
    # second verify in the process runs as many as the first
    calls = []
    real = lambdaops._recurrence
    monkeypatch.setattr(lambdaops, "_recurrence", lambda *a, **k: calls.append(1) or real(*a, **k))
    counts = []
    for _ in range(2):
        calls.clear()
        assert run_cli(["verify", "--group", "D2n:50"])[0] == EXIT_OK
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 100


@pytest.mark.parametrize("degree", ["0", "1"])
@pytest.mark.parametrize("group", ["D2n:50", "A5", "Hp:7"])
def test_verify_at_degree_0_and_1_passes_every_row(group, degree):
    # M = 0 keys every class by the empty psi-sequence, M = 1 by chi(c) alone
    code, out, err = run_cli(["verify", "--group", group, "--degree", degree])
    rows = [ln.split() for ln in out.splitlines()[1:]]
    assert code == EXIT_OK and err == "" and len(rows) > 5
    assert all(r[1] == "ok" for r in rows)


def _one_input_error_line(code, out, err):
    return (code == EXIT_INPUT and out == "" and len(err.splitlines()) == 1
            and err.startswith("error: ") and "Traceback" not in err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["genfun", "--generators", "(0 1);(0 1 2)", "--char", "regular", "--irr", "1"],
         "genfun needs a character table"),
        (["closedform", "--generators", "(0 1);(0 1 2)", "--spec", "regular"],
         "closedform needs a character table"),
        (["closedform", "--group", "S4", "--spec", "quotient:nope"],
         "quotient:<subgroup>[:m] with subgroup one of: A4, V, trivial"),
        (["closedform", "--group", "S4", "--spec", "onedim"], "onedim:<character label>"),
    ],
    ids=["genfun-without-table", "closedform-without-table", "unknown-quotient",
         "onedim-without-label"],
)
def test_a_request_the_group_cannot_serve_is_one_input_error_line(argv, message):
    code, out, err = run_cli(argv)
    assert _one_input_error_line(code, out, err) and err == f"error: {message}\n"


def test_a_directory_as_the_group_is_one_input_error_line(tmp_path):
    code, out, err = run_cli(["verify", "--group", str(tmp_path)])
    assert _one_input_error_line(code, out, err) and "cannot read group spec" in err


def _central(doc, subgroup, zeta=None):
    doc["normal_subgroups"] = {"A3": [0, 2]}
    doc["central_chars"] = {"z": {"subgroup": subgroup, "zeta": zeta or {"0": 0}}}
    return doc


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: _set_value(doc, 1, 1, [[0, 1, 0]]),
         "irreducibles[1].values[1]: a term has denominator 0"),
        (lambda doc: _set_field(doc, "normal_subgroups", {"N": [1]}),
         "normal_subgroups['N']: subgroup must contain the identity class"),
        (lambda doc: _central(doc, "nope"), "central_chars['z']: unknown subgroup 'nope'"),
        (lambda doc: _central(doc, [0, 1]),
         "central_chars['z']: class sizes do not sum to a divisor of |G|"),
        (lambda doc: _central(doc, "A3", {"0": 0, "2": 1}),
         "central_chars['z']: zeta at the inverse of C3 is not the reciprocal"),
        (lambda doc: _central(doc, "A3", {"0": 0, "2": 3}),
         "central_chars['z']: zeta is not multiplicative along the 2-power map at C3"),
    ],
    ids=["zero-denominator", "subgroup-without-identity", "central-unknown-subgroup",
         "central-invalid-subgroup", "zeta-not-reciprocal", "zeta-not-multiplicative"],
)
def test_a_spec_file_defect_is_one_input_error_line(tmp_path, mutate, message):
    path = tmp_path / "defect.json"
    path.write_text(json.dumps(mutate(dump_group_spec(get_group("S3")))))
    code, out, err = run_cli(["verify", "--group", str(path)])
    assert _one_input_error_line(code, out, err) and err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("group, char, irr", [("S4", "regular", "chi5"), ("A5", "chi4", "chi2"),
                                              ("Hp:7", "tau_1", "tau_1"),
                                              ("D2n:50", "natural", "tau1")])
@pytest.mark.parametrize("op", ["sym", "ext"])
def test_the_consistency_check_of_a_rational_form_prints_it_unchanged(monkeypatch, group, char,
                                                                       irr, op):
    argv = ["genfun", "--group", group, "--char", char, "--irr", irr, "--op", op]
    code, out, err = run_cli(argv)
    assert code == EXIT_OK and err == ""
    assert run_cli(argv + ["--check-consistency"]) == (EXIT_OK, out, "")
    # a planted rational form, 1 added to its numerator, fails the comparison
    real = cli.genfun_rational

    def planted(*args):
        rf = real(*args)
        return dataclasses.replace(rf, num=(rf.num[0] + 1, *rf.num[1:]) if rf.num else (1,))

    monkeypatch.setattr(cli, "genfun_rational", planted)
    assert run_cli(argv)[0] == EXIT_OK
    assert run_cli(argv + ["--check-consistency"]) == (
        EXIT_INTERNAL, "", "internal error: rational form disagrees with the series routes\n")
