"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a PASS line once its assertions hold, so running with
``pytest -s tests/test_acceptance.py`` shows one line per criterion.
"""

import random
from fractions import Fraction
from math import gcd

from symext.catalog import (
    central_characters,
    family_closed_form,
    get_group,
    named_subgroups,
    quotient_transfers,
    tau_prime,
)
from symext.closedforms import (
    burnside_regular_forms,
    central_forms,
    quotient_pullback,
    subgroup_spec,
)
from symext.exactnum import binom
from symext.genfun import (
    EXT,
    SYM,
    MultiplicityTable,
    RationalFunction,
    genfun_rational,
    multiplicity_table,
)
from symext.groupdata import (
    ClassFunction,
    decompose,
    inner_product,
    regular_character,
    validate_table,
)
from symext.lambdaops import (
    LambdaSequence,
    char_poly,
    exterior_powers,
    power_sum_check,
)

from oracle_utils import (
    S3_STANDARD_REPS,
    S4_NATURAL_REPS,
    h_from_power_sums,
    mat_pow,
    principal_minor_sum,
    random_virtual,
    trace,
)

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

# representative parameters for the heavy random/dual-route sweeps: both
# parities of the dihedral and quaternion families plus the smallest
# Heisenberg group
SWEEP_BUILTINS = [
    ("S3", None),
    ("A4", None),
    ("G21", None),
    ("S4", None),
    ("A5", None),
    ("D2n", 5),
    ("D2n", 6),
    ("Q4n", 2),
    ("Q4n", 3),
    ("Hp", 3),
]


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def onemt(a):
    return [1] + [0] * (a - 1) + [-1]


def RF(num, dens, extra=()):
    return RationalFunction.from_products(
        [num], [onemt(a) for a in dens] + list(extra)
    )


def decomposed(table, f):
    return {table.labels[j]: q for j, q in enumerate(decompose(f, table)) if q}


def test_criterion_1_lambda2_of_standard_s3():
    s3 = get_group("S3")
    lam = exterior_powers(s3.character("chi3"), 2, expect_character=True)
    assert decompose(lam[2], s3) == (0, 1, 0)
    assert lam[2] == s3.character("chi2")
    _passed(1, "second exterior power of the S3 standard character is the sign")


def test_criterion_2_s3_symmetric_table():
    s3 = get_group("S3")
    mt = multiplicity_table(s3.character("chi3"), s3, SYM, 10)
    assert mt.column(0) == (1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2)
    assert mt.column(1) == (0, 0, 0, 1, 0, 1, 1, 1, 1, 2, 1)
    assert mt.column(2) == (0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4)
    _passed(2, "S3 symmetric-power multiplicity table, degrees 0..10")


def test_criterion_3_s3_rational_generating_functions():
    s3 = get_group("S3")
    chi3 = s3.character("chi3")
    assert genfun_rational(chi3, s3, 0, SYM) == RF([1], [2, 3])
    assert genfun_rational(chi3, s3, 1, SYM) == RF([0, 0, 0, 1], [2, 3])
    assert genfun_rational(chi3, s3, 2, SYM) == RF([0, 1], [1, 3])
    _passed(3, "S3 standard-character generating functions in closed rational form")


def test_criterion_4_s3_regular_tables():
    s3 = get_group("S3")
    pi = regular_character(s3.classes)
    ext = multiplicity_table(pi, s3, EXT, 10)
    assert ext.column(0) == (1, 1, 1, 4, 4, 1, 0, 0, 0, 0, 0)
    assert ext.column(1) == (0, 1, 4, 4, 1, 1, 1, 0, 0, 0, 0)
    assert ext.column(2) == (0, 2, 5, 6, 5, 2, 0, 0, 0, 0, 0)
    sym = multiplicity_table(pi, s3, SYM, 10)
    # the degree-5 row is 42/42/84, forced by three independent routes (the
    # published table's 43/43/86 fails all three):
    # 1. the displayed per-class generating functions: only 1/(1-t)^6
    #    contributes at t^5, giving binom(10,5)/6 = 42 per unit of degree
    # 2. the coprime-degree rule at n=5: S^5(Pi) = binom(10,5)/6 * Pi = 42*Pi
    # 3. the dimension count: sum of deg_j * m_5j must be binom(10,5) = 252
    assert sym.column(0) == (1, 1, 5, 10, 24, 42, 83, 132, 222, 335, 511)
    assert sym.column(1) == (0, 1, 2, 10, 18, 42, 73, 132, 207, 335, 490)
    assert sym.column(2) == (0, 2, 7, 18, 42, 84, 153, 264, 429, 666, 1001)
    row5 = sym.rows[5]
    assert sum(d * m for d, m in zip(s3.degrees(), row5)) == binom(6 + 5 - 1, 5) == 252
    assert sum(d * m for d, m in zip(s3.degrees(), (43, 43, 86))) != 252
    spec = subgroup_spec(s3.classes, (0,))
    shortcut = burnside_regular_forms(s3.classes, spec, 1).shortcut(5, SYM)
    assert decompose(shortcut, s3) == row5
    _passed(4, "S3 regular-character tables (degree-5 column fixed by two oracles)")


GOLDEN_LAMBDA = {
    ("A4", "chi4"): ["chi1", "chi4", "chi4", "chi1"],
    ("S4", "chi3"): ["chi1", "chi3", "chi4", "chi2"],
    ("S4", "chi4"): ["chi1", "chi4", "chi4", "chi1"],
    ("S4", "chi5"): ["chi1", "chi5", "chi2"],
    ("A5", "chi2"): ["chi1", "chi2", "chi4+chi5", "chi2", "chi1"],
    ("A5", "chi3"): ["chi1", "chi3", "chi2+chi4+chi5", "chi2+chi4+chi5", "chi3", "chi1"],
    ("A5", "chi4"): ["chi1", "chi4", "chi4", "chi1"],
    ("A5", "chi5"): ["chi1", "chi5", "chi5", "chi1"],
    ("G21", "chi4"): ["chi1", "chi4", "chi5", "chi1"],
    ("G21", "chi5"): ["chi1", "chi5", "chi4", "chi1"],
}

GOLDEN_SYM_RATFUN = {
    ("A4", "chi4"): [
        ([1, 0, -1, 0, 1], [2, 2, 3], ()),
        ([0, 0, 1], [2, 2, 3], ()),
        ([0, 0, 1], [2, 2, 3], ()),
        ([0, 1, 1, 1], [2, 2, 3], ()),
    ],
    ("S4", "chi3"): [
        ([1], [2, 3, 4], ()),
        ([0, 0, 0, 0, 0, 0, 1], [2, 3, 4], ()),
        ([0, 1, 1, 1], [2, 3, 4], ()),
        ([0, 0, 0, 1, 1, 1], [2, 3, 4], ()),
        ([0, 0, 1, 0, 1], [2, 3, 4], ()),
    ],
    ("S4", "chi4"): [
        ([1, 0, 0, -1, 0, 0, 1], [2, 3, 4], ()),
        ([0, 0, 0, 1], [2, 3, 4], ()),
        ([0, 0, 1, 1, 1], [2, 3, 4], ()),
        ([0, 1, 0, 1, 0, 1], [2, 3, 4], ()),
        ([0, 0, 1, 0, 1], [2, 3, 4], ()),
    ],
    ("S4", "chi5"): [
        ([1], [2, 3], ()),
        ([0, 0, 0, 1], [2, 3], ()),
        ([0], [2, 3], ()),
        ([0], [2, 3], ()),
        ([0, 1, 1], [2, 3], ()),
    ],
    ("A5", "chi2"): [
        ([1, 0, -1, 0, 1, 0, -1, 0, 1], [2, 2, 3, 5], ()),
        ([0, 1, 1, 0, 0, 0, 1, 1], [2, 2, 3, 5], ()),
        ([0, 0, 1, 1, 1, 1, 1], [2, 2, 3, 5], ()),
        ([0, 0, 0, 1, 1, 1], [2, 2, 3, 5], ()),
        ([0, 0, 0, 1, 1, 1], [2, 2, 3, 5], ()),
    ],
    ("A5", "chi3"): [
        ([1, 0, -1, 0, 1, 1, 1, 0, -1, 0, 1], [2, 2, 3, 3, 5], ()),
        ([0, 0, 1, 3, 2, 0, 2, 3, 1], [2, 2, 3, 3, 5], ()),
        ([0, 1, 2, 1, 2, 3, 2, 1, 2, 1], [2, 2, 3, 3, 5], ()),
        ([0, 0, 0, 1, 2, 3, 2, 1], [2, 2, 3, 3, 5], ()),
        ([0, 0, 0, 1, 2, 3, 2, 1], [2, 2, 3, 3, 5], ()),
    ],
    # the chi4 coordinate of S_t(chi4) (and the twin chi5 coordinate of
    # S_t(chi5)) follows the per-coordinate display (t - t^3 + t^5 over
    # (1-t^2)^2(1-t^5)), which the dual-route series confirms; the collected
    # display misprints its numerator's top term
    ("A5", "chi4"): [
        ([1, 1, 0, -1, -1, -1, 0, 1, 1], [2, 3, 5], ([1, 1],)),
        ([0, 0, 0, 1], [1, 3, 5], ()),
        ([0, 0, 1], [2, 2, 3], ()),
        ([0, 1, 0, -1, 0, 1], [2, 2, 5], ()),
        ([0, 0, 0, 1], [2, 2, 5], ()),
    ],
    ("A5", "chi5"): [
        ([1, 1, 0, -1, -1, -1, 0, 1, 1], [2, 3, 5], ([1, 1],)),
        ([0, 0, 0, 1], [1, 3, 5], ()),
        ([0, 0, 1], [2, 2, 3], ()),
        ([0, 0, 0, 1], [2, 2, 5], ()),
        ([0, 1, 0, -1, 0, 1], [2, 2, 5], ()),
    ],
    ("G21", "chi4"): [
        ([1, -1, 0, 0, 1, 0, 0, -1, 1], [1, 3, 7], ()),
        ([0, 0, 0, 0, 1], [1, 3, 7], ()),
        ([0, 0, 0, 0, 1], [1, 3, 7], ()),
        ([0, 1, -1, 0, 1], [1, 1, 7], ()),
        ([0, 0, 1, 0, -1, 1], [1, 1, 7], ()),
    ],
    ("G21", "chi5"): [
        ([1, -1, 0, 0, 1, 0, 0, -1, 1], [1, 3, 7], ()),
        ([0, 0, 0, 0, 1], [1, 3, 7], ()),
        ([0, 0, 0, 0, 1], [1, 3, 7], ()),
        ([0, 0, 1, 0, -1, 1], [1, 1, 7], ()),
        ([0, 1, -1, 0, 1], [1, 1, 7], ()),
    ],
}


def test_criterion_5_golden_fixtures():
    for (fam, lbl), stages in GOLDEN_LAMBDA.items():
        tab = get_group(fam)
        chi = tab.character(lbl)
        lams = exterior_powers(chi, len(stages) - 1, expect_character=True)
        for i, names in enumerate(stages):
            want = {}
            for name in names.split("+"):
                want[name] = want.get(name, 0) + 1
            assert decomposed(tab, lams[i]) == want, (fam, lbl, i)
    for (fam, lbl), golden in GOLDEN_SYM_RATFUN.items():
        tab = get_group(fam)
        chi = tab.character(lbl)
        for j, (num, dens, extra) in enumerate(golden):
            assert genfun_rational(chi, tab, j, SYM) == RF(num, dens, extra), (
                fam,
                lbl,
                j,
            )
    _passed(5, "exterior decompositions and rational forms for A4/S4/A5/G21")


def test_criterion_6_permutation_character_oracle():
    cases = [
        ("S3", (0,), 1),
        ("S3", (0, 2), 1),
        ("S4", (0, 4), 1),
        ("S3", (0,), 2),
    ]
    for fam, indices, m in cases:
        tab = get_group(fam)
        cd = tab.classes
        spec = subgroup_spec(cd, indices)
        forms = burnside_regular_forms(cd, spec, m)
        chi = forms.character()
        bound = 2 * spec.quotient_order
        seq = LambdaSequence.compute(chi, bound, expect_character=True)
        for c in range(cd.class_count):
            poly = char_poly(chi, c)
            closed = forms.lambda_poly(c)
            assert len(poly) == len(closed)
            assert all(poly[i] == closed[i] for i in range(len(poly)))
        # multiplicities through the closed-form series agree to degree 2|G/N|
        mt = multiplicity_table(chi, tab, SYM, bound)
        for n in range(bound + 1):
            closed_fn = ClassFunction(
                cd, [forms.sym_series(c, bound)[n] for c in range(cd.class_count)]
            )
            assert decompose(closed_fn, tab) == mt.rows[n]
        for n in range(1, spec.quotient_order + 6):
            if gcd(n, spec.quotient_order) != 1:
                continue
            seq_n = (
                seq
                if n <= bound
                else LambdaSequence.compute(chi, n, expect_character=True)
            )
            assert forms.shortcut(n, SYM) == seq_n.syms[n], (fam, indices, m, n)
            assert forms.shortcut(n, EXT) == seq_n.lambdas[n]
    _passed(6, "closed forms for coset-action characters match the engine")


def test_criterion_7_heisenberg_closed_forms():
    for p in (3, 5):
        tab = get_group("Hp", p)
        for s in range(1, p):
            tau = tab.character(f"tau_{s}")
            seq = LambdaSequence.compute(tau, 2 * p, expect_character=True)
            for n in range(2 * p + 1):
                want_ext = family_closed_form("Hp", p, s, "ext", n)
                want_sym = family_closed_form("Hp", p, s, "sym", n)
                assert decomposed(tab, seq.lambdas[n]) == want_ext, (p, s, n)
                assert decomposed(tab, seq.syms[n]) == want_sym, (p, s, n)
            assert seq.lambdas[p] == tab.character("chi_0_0")
            for n in range(p + 1, 2 * p + 1):
                assert seq.lambdas[n].is_zero()
        # the same values through the central-character machinery on p*zeta_0
        for name, spec in central_characters("Hp", p).items():
            forms = central_forms(tab.classes, spec)
            chi = forms.character()
            for c in range(tab.classes.class_count):
                poly = char_poly(chi, c)
                closed = forms.lambda_poly(c)
                assert len(poly) == len(closed)
                assert all(poly[i] == closed[i] for i in range(len(poly)))
    _passed(7, "Heisenberg tau characters match the central closed-form case list")


def test_criterion_8_dihedral_and_quaternion():
    for fam, params in [("D2n", (4, 5, 6, 7, 8)), ("Q4n", (2, 3, 4))]:
        for n in params:
            tab = get_group(fam, n)
            period = n if fam == "D2n" else 2 * n
            n_tau = ((n - 1) // 2 if n % 2 else n // 2 - 1) if fam == "D2n" else n - 1
            for k in range(1, n_tau + 1):
                tau = tab.character(f"tau{k}")
                seq = LambdaSequence.compute(tau, 12, expect_character=True)
                for d in range(13):
                    want = family_closed_form(fam, n, k, "sym", d)
                    assert decomposed(tab, seq.syms[d]) == want, (fam, n, k, d)
            # the degree-2 exterior identity holds for every integer k
            for k in range(period):
                tk = tau_prime(fam, n, k)
                lam2 = exterior_powers(tk, 2)[2]
                want = family_closed_form(fam, n, k, "ext", 2)
                assert decomposed(tab, lam2) == want, (fam, n, k)
    _passed(8, "dihedral and quaternion symmetric/exterior closed forms")


def test_criterion_9_quotient_transfer():
    s4 = get_group("S4")
    qtable, qmap = quotient_transfers("S4")["V"]
    qt = quotient_pullback(s4, qtable, qmap)
    pulled = qt.pulled_irreducibles()
    for chi_q in qtable.irreducibles:
        seq_q = LambdaSequence.compute(chi_q, 10, expect_character=True)
        seq_g = LambdaSequence.compute(qt.pull(chi_q), 10, expect_character=True)
        for i in range(11):
            for j in range(qtable.classes.class_count):
                lhs = inner_product(pulled[j], seq_g.syms[i])
                rhs = inner_product(qtable.irreducibles[j], seq_q.syms[i])
                assert lhs == rhs
    _passed(9, "multiplicities transfer through the S4 -> S3 quotient")


def test_criterion_10a_all_tables_validate():
    for fam, param in ALL_BUILTINS:
        assert validate_table(get_group(fam, param)) == [], (fam, param)
    _passed("10a", f"table identities hold for all {len(ALL_BUILTINS)} builtins")


def test_criterion_10b_additivity_on_random_virtual_characters():
    for fam, param in SWEEP_BUILTINS:
        tab = get_group(fam, param)
        rng = random.Random(hash((fam, param)) & 0xFFFF)
        pool = [random_virtual(tab, rng) for _ in range(100)]
        M = 8
        for f, g in zip(pool[0::2], pool[1::2]):
            sf = LambdaSequence.compute(f, M)
            sg = LambdaSequence.compute(g, M)
            sfg = LambdaSequence.compute(f + g, M)
            for n in range(M + 1):
                lam_acc = ClassFunction.constant(tab.classes, 0)
                sym_acc = ClassFunction.constant(tab.classes, 0)
                for i in range(n + 1):
                    lam_acc = lam_acc + sf.lambdas[i] * sg.lambdas[n - i]
                    sym_acc = sym_acc + sf.syms[i] * sg.syms[n - i]
                assert sfg.lambdas[n] == lam_acc
                assert sfg.syms[n] == sym_acc
    _passed("10b", "lambda_t and S_t are additive on 100 random virtual characters per builtin")


def test_criterion_10c_dimension_sums():
    for fam, param in SWEEP_BUILTINS:
        tab = get_group(fam, param)
        degs = tab.degrees()
        for lbl, chi in zip(tab.labels, tab.irreducibles):
            d = int(chi.values[0].to_rational())
            sym = multiplicity_table(chi, tab, SYM, 10)
            ext = multiplicity_table(chi, tab, EXT, 10)
            for i in range(11):
                assert sum(a * b for a, b in zip(degs, sym.rows[i])) == binom(
                    d + i - 1, i
                ), (fam, param, lbl, i)
                assert sum(a * b for a, b in zip(degs, ext.rows[i])) == binom(d, i)
    _passed("10c", "dimension counts of every builtin irreducible, degrees 0..10")


def test_criterion_10d_matrix_trace_oracle():
    cases = [("S3", "chi3", S3_STANDARD_REPS), ("S4", None, S4_NATURAL_REPS)]
    for fam, lbl, reps in cases:
        tab = get_group(fam)
        if lbl is None:
            chi = ClassFunction(tab.classes, [trace(m) for m in reps])
        else:
            chi = tab.character(lbl)
        seq = LambdaSequence.compute(chi, 4, expect_character=True)
        for c, m in enumerate(reps):
            assert chi.values[c] == trace(m)
            p = [None] + [trace(mat_pow(m, k)) for k in range(1, 5)]
            for n in range(1, 5):
                assert seq.lambdas[n].values[c] == principal_minor_sum(m, n)
                assert seq.syms[n].values[c] == h_from_power_sums(p, n)
    _passed("10d", "matrix minor/power-trace oracle agrees with the recurrences")


def test_criterion_10e_dual_route_to_degree_25():
    for fam, param in SWEEP_BUILTINS:
        tab = get_group(fam, param)
        for chi in tab.irreducibles:
            seq = LambdaSequence.compute(chi, 25, expect_character=True)
            # S^n at every class again, from psi alone by Newton's power sums
            power_sum_check(seq)
            MultiplicityTable.certify(seq, tab, SYM)
    _passed("10e", "certified table matches the power-sum route to degree 25")
