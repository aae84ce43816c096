"""The certificates ``verify`` reports, one row each.

``verify_checks`` runs every identity check attached to a resolved group
(a ``catalog.GroupContext``: its ``classes``, ``table``, ``natural``,
``model``, ``subgroups``, ``central`` and ``transfers``) and returns the rows
in order, each a dict with ``check``, ``ok`` and ``detail``.  One
``SeriesShare`` serves every row's series but the quotient transfers', and
is dropped on return.
"""

from __future__ import annotations

from math import gcd

from .catalog import GroupContext
from .closedforms import (
    CentralForms,
    MapInconsistentError,
    burnside_regular_forms,
    central_forms,
    expand_product_form,
    one_dim_forms,
    quotient_pullback,
)
from .genfun import EXT, SYM, MultiplicityTable, genfun_rationals
from .groupdata import (
    CharacterTable,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    decompose,
    regular_character,
)
from .lambdaops import (
    CrossCheckError,
    InvalidCharacterError,
    LambdaSequence,
    SeriesShare,
    is_periodic,
    power_sum_check,
    product_form,
)


def verify_checks(ctx: GroupContext, degree: int) -> list[dict]:
    checks: list[dict] = []
    share = SeriesShare()

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    cd = ctx.classes
    if ctx.table is not None:
        # validated at load: get_group (exit 3) and load_group_spec (exit 2) raise
        record("table-identities", True)
    else:
        problems = cd.structural_problems()
        record("class-data-structure", not problems, "; ".join(problems[:4]))
    # power maps compose
    ok = True
    for n in (2, 3, 5, 6):
        for m in (2, 3, 5):
            lhs = cd.power_map(n * m)
            via = cd.power_map(n)
            rhs = tuple(cd.power_map(m)[via[c]] for c in range(cd.class_count))
            if lhs != rhs:
                ok = False
    record("power-map-composition", ok)
    reg = regular_character(cd)
    record("regular-character-periodic", is_periodic(reg))
    # product form reconstructs lambda_t of the regular character, a polynomial
    # of degree |G|, at every class
    pf, m = product_form(reg), cd.group_order
    lams = LambdaSequence.compute(reg, m, share=share).lambdas
    ok = all(expand_product_form(pf, c, m) == [f.values[c] for f in lams]
             for c in range(cd.class_count))
    record("regular-product-form", ok)
    if ctx.natural is not None:
        record("natural-character-periodic", is_periodic(ctx.natural))
    if ctx.table is None:
        return checks
    table = ctx.table
    qs = decompose(reg, table)
    record(
        "regular-degree-multiplicities",
        list(qs) == [chi.values[0].to_rational() for chi in table.irreducibles],
    )
    record("dual-route-coefficients", *dual_route_check(table, degree, share))
    record("one-dimensional-forms", one_dim_check(table, share))
    for name, spec in sorted(ctx.subgroups.items()):
        forms = burnside_regular_forms(cd, spec, 1)
        record(f"quotient-permutation-forms:{name}", *closed_form_check(forms, degree, share))
    for name, spec in sorted(ctx.central.items()):
        record(f"central-forms:{name}", *closed_form_check(central_forms(cd, spec), degree, share))
    for name, (qtable, qmap) in sorted(ctx.transfers.items()):
        try:
            qt = quotient_pullback(ctx.table, qtable, qmap)
        except MapInconsistentError as exc:
            record(f"quotient-transfer:{name}", False, str(exc))
            continue
        # fresh shares, or a shared entry would be compared with itself;
        # decompositions are unique: with every pulled irreducible a row of G and
        # S^i(pull chi_q) = pull S^i(chi_q) at every class, S^i(chi_q) = sum_j q_j
        # chi_q,j pulls back to S^i(pull chi_q) = sum_j q_j pull chi_q,j, so each
        # multiplicity transfers, and every row of G not pulled back has 0
        ok = all(phi in table.irreducibles for phi in qt.pulled_irreducibles())
        for chi_q in qtable.irreducibles:
            seq_q = LambdaSequence.compute(chi_q, degree, True)
            seq_g = LambdaSequence.compute(qt.pull(chi_q), degree, True)
            if any(qt.pull(f) != g for f, g in zip(seq_q.syms, seq_g.syms)):
                ok = False
        record(f"quotient-transfer:{name}", ok)
    if ctx.model is not None:
        derived = ctx.model.data
        match = ctx.model.matching
        ok = all(
            derived.sizes[match[c]] == cd.sizes[c]
            and derived.rep_orders[match[c]] == cd.rep_orders[c]
            for c in range(cd.class_count)
        )
        record("permutation-model-classes", ok)
    return checks


def _transport_mismatch(syms, rep_syms, pm) -> tuple[int, int] | None:
    """The first (n, c) with S^n(c) != S^n_r(c^u), for the series ``syms`` of
    chi = chi_r o u, ``rep_syms`` the orbit representative's and ``pm`` the
    u-th power map; None if every value agrees."""
    for n, (f, g) in enumerate(zip(syms, rep_syms)):
        for c, v in enumerate(f.values):
            w = g.values[pm[c]]  # with the share usually the same object
            if v is not w and v != w:
                return n, c
    return None


def one_dim_check(table: CharacterTable, share: SeriesShare | None = None) -> bool:
    """The shortcut forms of every linear character against the engine: S^i
    to degree 12 at every class, and the rational form toward every chi_j.
    ``one_dim_forms`` and ``genfun_rationals`` run, and the forms are
    compared, once per character orbit.  Any other chi = chi_r o u compares
    its S^i(c) with chi_r^i(c^u) at every class.  Its forms are chi_r's with
    chi_i renamed chi_pi(i) (S^n(chi) = S^n(chi_r) o u = sum_i q_i chi_pi(i),
    pi a bijection), so comparing them again would read no value of chi.
    The series run through ``share``, a fresh one if None."""
    ok, js = True, range(table.classes.class_count)
    share = SeriesShare() if share is None else share
    orbit, _ = table.character_orbits()
    forms_of = {}
    for j, chi in enumerate(table.irreducibles):
        if chi.values[0] != 1:
            continue
        r, u = orbit[j]
        if r == j:
            forms_of[j] = one_dim_forms(chi, table)
            try:
                rationals = genfun_rationals(chi, table, js, SYM)
            except CrossCheckError:  # the column fails the numerator-degree certificate
                rationals = None
            if rationals != [forms_of[j].genfun(i) for i in js]:
                ok = False
        seq = LambdaSequence.compute(chi, 12, expect_character=True, share=share)
        powers = [forms_of[r].sym_power(i) for i in range(13)]
        if _transport_mismatch(seq.syms, powers, table.classes.power_map(u)) is not None:
            ok = False
    return ok


def dual_route_check(table: CharacterTable, degree: int,
                     share: SeriesShare | None = None) -> tuple[bool, str]:
    """The certified symmetric-power table of every irreducible, with each
    per-class S^n recomputed from psi by the power-sum identity.  One share,
    ``share`` or a fresh one if None, serves the lambda, S and power-sum
    series of every irreducible.

    ``certify`` runs once per character orbit (``character_orbits``).  Any
    other chi_j = chi_r o u has S^n(chi_j)(c) compared with S^n(chi_r)(c^u) at
    every class and every n, which certifies it: S^n(chi_r) = sum_i q_i chi_i,
    q_i nonnegative integers, holds at every class, so S^n(chi_j)(c) =
    sum_i q_i chi_i(c^u) = sum_i q_i chi_pi(i)(c), with chi_pi(i)(c) =
    chi_i(c^u).  pi is total: the orbit table holds more than the identity
    only when every unit image of every row was looked up and found to be a
    row; otherwise every chi is its own orbit and is certified.
    """
    cd, syms = table.classes, {}
    share = SeriesShare() if share is None else share
    orbit, _ = table.character_orbits()
    for j, (chi, (r, u)) in enumerate(zip(table.irreducibles, orbit)):
        try:
            seq = LambdaSequence.compute(chi, degree, expect_character=True, share=share)
            power_sum_check(seq)
            if r == j:
                MultiplicityTable.certify(seq, table, SYM)
                syms[j] = seq.syms
                continue
            moved = _transport_mismatch(seq.syms, syms[r], cd.power_map(u))
            if moved is not None:
                n, c = moved
                raise CrossCheckError(
                    f"S^{n} at class {cd.names[c]} is not S^{n}({table.labels[r]}) "
                    f"at its {u}-th power"
                )
        except (CrossCheckError, InvalidCharacterError, NonIntegralMultiplicityError,
                NonRationalMultiplicityError) as exc:
            return False, f"{table.labels[j]}: {exc}"
    return True, ""


def closed_form_check(forms: CentralForms, degree: int,
                      share: SeriesShare | None = None) -> tuple[bool, str]:
    """m*zeta_0 against the recurrences: lambda_t at every class with a closed
    form, lambda^n = 0 there for m < n <= min(degree, 2m), and the
    coprime-degree rule for n <= min(|G/N| + 5, degree, 2m), off lambda and S
    to min(degree, 2m), and lambda alone to m if m is larger.  Both run
    through ``share`` (a fresh one each if None); on the trivial subgroup
    m*zeta_0 is the regular character, whose lambda to |G| ``verify`` has."""
    cd, spec, chi = forms.cd, forms.spec, forms.character()
    m = spec.multiplier
    bound = min(degree, 2 * m)
    seq = LambdaSequence.compute(chi, bound, share=share)
    lams = seq.lambdas if m <= bound else LambdaSequence.compute(chi, m, share=share).lambdas
    closed = [c for c in range(cd.class_count) if m % forms.coset_orders[c] == 0]
    ok = True
    for c in closed:
        lam = [f.values[c] for f in lams]
        if lam[: m + 1] != forms.lambda_poly(c) or any(lam[m + 1 : bound + 1]):
            ok = False
    qo = spec.subgroup.quotient_order
    for n in range(1, min(qo + 5, bound) + 1):
        if gcd(n, qo) == 1 and (
            seq.syms[n] != forms.shortcut(n, SYM) or lams[n] != forms.shortcut(n, EXT)
        ):
            ok = False
    missing = [cd.names[c] for c in range(cd.class_count) if c not in closed]
    return ok, f"no closed form at {', '.join(missing)}" if missing else ""
