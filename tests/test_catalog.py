import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symext
from symext import catalog
from symext.catalog import (
    NoModelError,
    central_characters,
    family_closed_form,
    get_group,
    get_group_by_selector,
    get_perm_model,
    match_class_data,
    named_subgroups,
    parse_group_selector,
    quotient_transfers,
    tau_prime,
)
from symext.exactnum import Cyclotomic
from symext.groupdata import ClassData, decompose, validate_table
from symext.lambdaops import LambdaSequence, exterior_powers, symmetric_powers
from symext.permgroup import class_data

ALL_BUILTINS = [
    ("S3", None),
    ("A4", None),
    ("G21", None),
    ("S4", None),
    ("A5", None),
    ("D2n", 4),
    ("D2n", 5),
    ("D2n", 6),
    ("D2n", 7),
    ("D2n", 8),
    ("Q4n", 2),
    ("Q4n", 3),
    ("Q4n", 4),
    ("Hp", 3),
    ("Hp", 5),
]


def test_selector_parsing():
    assert parse_group_selector("S3") == ("S3", None)
    assert parse_group_selector("D2n:8") == ("D2n", 8)
    with pytest.raises(ValueError):
        parse_group_selector("Hp:x")
    assert get_group_by_selector("Q4n:2").classes.group_order == 8


def test_parameter_validation():
    with pytest.raises(ValueError):
        get_group("S3", 4)
    with pytest.raises(ValueError):
        get_group("D2n", 2)
    with pytest.raises(ValueError):
        get_group("D2n", 101)
    with pytest.raises(ValueError):
        get_group("Q4n", 51)
    with pytest.raises(ValueError):
        get_group("Hp", 4)
    with pytest.raises(ValueError):
        get_group("Hp", 13)
    with pytest.raises(ValueError):
        get_group("Frob20")
    with pytest.raises(ValueError):
        get_group("Q4n")


@pytest.mark.parametrize("family,param", ALL_BUILTINS)
def test_all_builtins_validate(family, param):
    assert validate_table(get_group(family, param)) == []


def test_s3_table_values():
    s3 = get_group("S3")
    assert [[v.to_rational() for v in chi.values] for chi in s3.irreducibles] == [
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ]
    assert s3.classes.sizes == (1, 3, 2)
    assert s3.classes.rep_orders == (1, 2, 3)


def test_g21_table_values():
    g21 = get_group("G21")
    a = g21.character("chi4").values[1]
    b = g21.character("chi4").values[2]
    assert a + b == -1 and a * b == 2
    assert g21.classes.sizes == (1, 3, 3, 7, 7)
    assert g21.classes.inverse_class == (0, 2, 1, 4, 3)


def test_s4_a5_tables():
    assert get_group("S4").classes.sizes == (1, 6, 8, 6, 3)
    a5 = get_group("A5")
    assert a5.classes.sizes == (1, 15, 20, 12, 12)
    a = a5.character("chi4").values[3]
    b = a5.character("chi4").values[4]
    assert a + b == 1 and a * b == -1  # -b and -a with a+b = ab = -1


def test_hp_structure():
    hp = get_group("Hp", 3)
    assert hp.classes.class_count == 11
    assert hp.classes.group_order == 27
    degrees = hp.degrees()
    assert degrees.count(1) == 9 and degrees.count(3) == 2
    assert hp.classes.sizes == (1,) * 3 + (3,) * 8
    hp5 = get_group("Hp", 5)
    assert hp5.classes.class_count == 29
    assert hp5.degrees().count(1) == 25 and hp5.degrees().count(5) == 4


def test_quaternion_corrected_class_data():
    # reflection-type classes have n elements each of order 4, and for odd n
    # the two classes are swapped by inversion
    for n in (2, 3, 4, 5):
        q = get_group("Q4n", n)
        cd = q.classes
        assert cd.sizes[-2:] == (n, n)
        assert cd.rep_orders[-2:] == (4, 4)
        k = cd.class_count
        if n % 2 == 0:
            assert cd.inverse_class[k - 2] == k - 2
        else:
            assert cd.inverse_class[k - 2] == k - 1


def test_dihedral_structure():
    d10 = get_group("D2n", 5)
    assert d10.classes.sizes == (1, 2, 2, 5)
    assert d10.classes.rep_orders == (1, 5, 5, 2)
    d12 = get_group("D2n", 6)
    assert d12.classes.sizes == (1, 2, 2, 1, 3, 3)
    assert len(d12.irreducibles) == 6


def test_tau_prime_relations():
    for fam, n in [("D2n", 5), ("D2n", 6), ("Q4n", 2), ("Q4n", 3)]:
        period = n if fam == "D2n" else 2 * n
        for k in range(period):
            for l in range(period):
                lhs = tau_prime(fam, n, k) * tau_prime(fam, n, l)
                rhs = tau_prime(fam, n, k + l) + tau_prime(fam, n, k - l)
                assert lhs == rhs
        tab = get_group(fam, n)
        assert tau_prime(fam, n, 0) == tab.character("chi1") + tab.character("chi2")
        assert tau_prime(fam, n, 3) == tau_prime(fam, n, -3)
        assert tau_prime(fam, n, 2) == tau_prime(fam, n, 2 + period)
        assert tab.character("chi2") * tau_prime(fam, n, 1) == tau_prime(fam, n, 1)
        if fam == "Q4n" or n % 2 == 0:
            boundary = period // 2
            assert tau_prime(fam, n, boundary) == tab.character("chi3") + tab.character(
                "chi4"
            )


def test_tau_prime_matches_table_irreducibles():
    for fam, n, n_tau in [("D2n", 5, 2), ("D2n", 6, 2), ("Q4n", 3, 2)]:
        tab = get_group(fam, n)
        for k in range(1, n_tau + 1):
            assert tau_prime(fam, n, k) == tab.character(f"tau{k}")


def test_family_closed_form_samples():
    # dihedral: second exterior power is the sign twist
    assert family_closed_form("D2n", 5, 1, "ext", 2) == {"chi2": 1}
    assert family_closed_form("Q4n", 3, 1, "ext", 2) == {"chi1": 1}
    assert family_closed_form("Q4n", 3, 2, "ext", 2) == {"chi2": 1}
    # S^3(tau_1) on D2n(5): tau_1 + tau_3 with tau_3 = tau_2 after folding
    assert family_closed_form("D2n", 5, 1, "sym", 3) == {"tau1": 1, "tau2": 1}
    got = family_closed_form("Hp", 3, 1, "sym", 3)
    from fractions import Fraction

    assert got["chi_0_0"] == Fraction(10 + 8, 9)
    with pytest.raises(ValueError):
        family_closed_form("S3", None, 1, "sym", 2)
    with pytest.raises(ValueError):
        family_closed_form("Hp", 3, 3, "sym", 2)  # tau index out of range


def test_family_closed_form_matches_engine_samples():
    for fam, n, ks in [("D2n", 7, range(7)), ("Q4n", 4, range(8))]:
        tab = get_group(fam, n)
        for k in ks:
            tk = tau_prime(fam, n, k)
            seq = LambdaSequence.compute(tk, 8)
            for d in range(9):
                want = family_closed_form(fam, n, k, "sym", d)
                got = {
                    tab.labels[j]: q
                    for j, q in enumerate(decompose(seq.syms[d], tab))
                    if q
                }
                assert want == got, (fam, n, k, d)


def test_perm_models_match_builtins():
    for family, param in ALL_BUILTINS:
        if (family, param) == ("Hp", 5):
            continue  # covered separately, the 125-point model is slower
        model = get_perm_model(family, param)
        tab = get_group(family, param)
        cd = tab.classes
        assert len(model.group) == cd.group_order
        m = model.matching
        for c in range(cd.class_count):
            assert model.data.sizes[m[c]] == cd.sizes[c]
            assert model.data.rep_orders[m[c]] == cd.rep_orders[c]
            assert m[cd.inverse_class[c]] == model.data.inverse_class[m[c]]
            for p, pm in cd.prime_power_maps.items():
                assert m[pm[c]] == model.data.prime_power_maps[p][m[c]]


def test_perm_model_hp():
    model = get_perm_model("Hp", 3)
    assert len(model.group) == 27
    assert model.data.class_count == 11


def test_match_class_data_rejects_mismatch():
    s3 = get_group("S3").classes
    a4 = get_group("A4").classes
    assert match_class_data(s3, a4) is None
    d2n3 = get_group("D2n", 3).classes  # D6 is isomorphic to S3
    model = get_perm_model("S3")
    assert match_class_data(d2n3, model.data) is not None


def _relabelled(cd, perm):
    """A copy of cd whose class perm[c] is class c of cd."""
    k = cd.class_count
    back = sorted(range(k), key=perm.__getitem__)  # back[perm[c]] = c
    return ClassData(cd.group_order, cd.exponent, [cd.names[back[j]] for j in range(k)],
                     [cd.sizes[back[j]] for j in range(k)],
                     [cd.rep_orders[back[j]] for j in range(k)],
                     [perm[cd.inverse_class[back[j]]] for j in range(k)],
                     {p: [perm[m[back[j]]] for j in range(k)]
                      for p, m in cd.prime_power_maps.items()})


def _is_isomorphism(a, b, m):
    return sorted(m) == list(range(a.class_count)) and all(
        b.sizes[m[c]] == a.sizes[c] and b.rep_orders[m[c]] == a.rep_orders[c]
        and m[a.inverse_class[c]] == b.inverse_class[m[c]]
        and all(m[pm[c]] == b.prime_power_maps[p][m[c]] for p, pm in a.prime_power_maps.items())
        for c in range(a.class_count)
    )


def test_match_class_data_backtracks_on_a_relabelled_copy(monkeypatch):
    # on this relabelling of Hp:3 the first candidate for some class of order
    # 3 fails later, so the search must undo it and try the next one
    cd = get_group("Hp", 3).classes
    b = _relabelled(cd, [0, 7, 9, 10, 8, 6, 4, 1, 5, 2, 3])
    real, calls = catalog._extend_matching, []
    monkeypatch.setattr(catalog, "_extend_matching", lambda *a: calls.append(1) or real(*a))
    m = match_class_data(cd, b)
    assert m == (0, 7, 9, 1, 2, 3, 5, 8, 4, 10, 6) and _is_isomorphism(cd, b, m)
    assert len(calls) > cd.class_count + 1  # more steps than one straight descent


def test_match_class_data_rejects_a_moved_power_image():
    # the 2-power image of C(0,1) moved from C(0,2) to C(1,0), both of order
    # 3: the 2-power map is no longer a bijection, so no matching exists
    cd = get_group("Hp", 3).classes
    maps = {**cd.prime_power_maps, 2: list(cd.prime_power_maps[2])}
    assert maps[2][3] == 4 and cd.rep_orders[4] == cd.rep_orders[5]
    maps[2][3] = 5
    b = ClassData(cd.group_order, cd.exponent, cd.names, cd.sizes, cd.rep_orders,
                  cd.inverse_class, maps)
    assert match_class_data(cd, b) is None
    assert match_class_data(cd, cd) == tuple(range(cd.class_count))


def test_named_structure():
    assert named_subgroups("S4")["V"] == (0, 4)
    assert named_subgroups("Hp", 3)["center"] == (0, 1, 2)
    assert set(central_characters("Hp", 3)) == {"zeta_1", "zeta_2"}
    assert central_characters("S3") == {}
    assert "V" in quotient_transfers("S4")
    assert quotient_transfers("A4") == {}


LIBRARY_ONLY = """
import json, sys
from symext import catalog, checks
with open(sys.argv[1], "w") as fh:
    json.dump(catalog.dump_group_spec(catalog.get_group("A4")), fh)
for ctx in (catalog.load_group_spec(sys.argv[1]), catalog.resolve_group("S3")):
    rows = checks.verify_checks(ctx, 3)
    assert rows and all(row["ok"] for row in rows), rows
assert "symext.cli" not in sys.modules
"""


def test_spec_files_builtins_and_verify_run_without_the_cli(tmp_path):
    src = Path(symext.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", LIBRARY_ONLY, str(tmp_path / "a4.json")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _imports_cli(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "symext.cli" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in ("cli", "symext.cli") or (
            node.module in (None, "symext") and any(a.name == "cli" for a in node.names))
    return False


def test_only_the_entry_point_imports_the_cli():
    package = Path(symext.__file__).resolve().parent
    importers = [path.name for path in sorted(package.glob("*.py"))
                 if any(map(_imports_cli, ast.walk(ast.parse(path.read_text()))))]
    assert importers == ["__main__.py"]
