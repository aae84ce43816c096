"""Command-line front end: argument parsing, the subcommands and rendering.

Subcommands: ``decompose`` (multiplicity tables), ``genfun`` (series or exact
rational generating functions), ``closedform`` (shortcut evaluations),
``verify`` (every identity check attached to a group).  ``catalog`` resolves
the group: a builtin, a JSON group-spec file, or permutation generators.
Output is deterministic: the same invocation produces byte-identical text.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (a certification or cross-check inside symext failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd

from . import catalog
from .catalog import MAX_DEGREE, GroupContext, InputError, check_multiplier
from .checks import verify_checks
from .closedforms import (
    CentralForms,
    NonIntegerExponentError,
    NormalSubgroupSpec,
    burnside_regular_forms,
    central_forms,
    one_dim_forms,
    subgroup_spec,
)
from .genfun import (
    EXT,
    SYM,
    format_poly,
    genfun_rational,
    genfun_series,
    multiplicity_table,
)
from .groupdata import (
    CharacterTable,
    ClassFunction,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    decompose,
)
from .permgroup import parse_digits

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# deterministic output documents


@dataclass
class OutputDocument:
    kind: str  # table | series | ratfun | closedform | report
    payload: dict

    def to_machine(self) -> str:
        return json.dumps(
            {"kind": self.kind, "payload": self.payload},
            sort_keys=True,
            separators=(",", ":"),
        )

    def rows_for_tabulation(self) -> tuple[list[str], list[list[str]]]:
        p = self.payload
        if self.kind == "table":
            header = ["degree"] + list(p["columns"])
            rows = [[str(i)] + [str(v) for v in row] for i, row in enumerate(p["rows"])]
            return header, rows
        if self.kind == "series":
            header = ["degree", "coefficient"]
            return header, [[str(i), str(c)] for i, c in enumerate(p["coefficients"])]
        if self.kind == "ratfun":
            return ["field", "value"], [
                ["display", p["display"]],
                ["numerator", " ".join(p["numerator"])],
                ["denominator", " ".join(p["denominator"])],
            ]
        if self.kind == "closedform":
            return ["item", "value"], [[r["item"], r["value"]] for r in p["lines"]]
        header = ["check", "status", "detail"]
        return header, [
            [r["check"], "ok" if r["ok"] else "FAIL", r.get("detail", "")]
            for r in p["checks"]
        ]

    def to_plain(self) -> str:
        header, rows = self.rows_for_tabulation()
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        return "".join(
            "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n"
            for r in (header, *rows)
        )

    def to_csv(self) -> str:
        header, rows = self.rows_for_tabulation()

        def esc(cell: str) -> str:
            if any(ch in cell for ch in ",\"\n"):
                return '"' + cell.replace('"', '""') + '"'
            return cell

        return "".join(",".join(map(esc, r)) + "\n" for r in (header, *rows))

    def render(self, fmt: str) -> str:
        if fmt == "plain":
            return self.to_plain()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "machine":
            return self.to_machine() + "\n"
        raise InputError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# flags


def resolve_group(args) -> GroupContext:
    """The group of --group and --generators (``catalog.resolve_group``)."""
    return catalog.resolve_group(getattr(args, "group", None), getattr(args, "generators", None))


def _degree(value: int, flag: str = "--degree") -> int:
    if not 0 <= value <= MAX_DEGREE:
        raise InputError(f"{flag} must be in 0..{MAX_DEGREE}")
    return value


def _copies(sel: list[str], i: int, sub: NormalSubgroupSpec, text: str) -> int:
    """The m of regular[:m] or quotient:<N>[:m] (default 1); m*|G/N| is the
    multiplier of the closed form."""
    m = parse_digits(sel[i] if len(sel) > i else "1", "--spec m")
    if m is None:
        raise InputError(f"{text}: m must be a positive integer")
    check_multiplier(m * sub.quotient_order, text)
    return m


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> tuple[OutputDocument, int]:
    ctx = resolve_group(args)
    if ctx.table is None:
        raise InputError("decompose needs a character table")
    _degree(args.degree)
    chi = ctx.character(args.char)
    mt = multiplicity_table(chi, ctx.table, args.op, args.degree)
    payload = {"group": ctx.name, "character": args.char, "op": args.op,
               "columns": list(ctx.table.labels), "rows": [list(row) for row in mt.rows]}
    return OutputDocument("table", payload), EXIT_OK


def _resolve_irr(ctx: GroupContext, selector: str) -> int:
    labels = ctx.table.labels
    if selector in labels:
        return labels.index(selector)
    j = parse_digits(selector, "--irr")
    if j is None:
        raise InputError(
            f"unknown irreducible {selector!r}; available: " + ", ".join(labels)
        )
    if not 1 <= j <= len(labels):
        raise InputError(f"irreducible index must be in 1..{len(labels)}")
    return j - 1


def cmd_genfun(args) -> tuple[OutputDocument, int]:
    ctx = resolve_group(args)
    if ctx.table is None:
        raise InputError("genfun needs a character table")
    chi = ctx.character(args.char)
    j = _resolve_irr(ctx, args.irr)
    head = {"group": ctx.name, "character": args.char, "irreducible": ctx.table.labels[j],
            "op": args.op}
    if args.series is not None:
        coeffs = genfun_series(
            chi, ctx.table, j, args.op, _degree(args.series, "--series"),
            cross_check=args.check_consistency,
        )
        return OutputDocument("series", {**head, "coefficients": list(map(str, coeffs))}), EXIT_OK
    rf = genfun_rational(chi, ctx.table, j, args.op)
    if args.check_consistency:
        want = genfun_series(chi, ctx.table, j, args.op, 25, cross_check=True)
        if rf.series(25) != want:
            raise AssertionError("rational form disagrees with the series routes")
    payload = {**head, "display": str(rf), "numerator": list(map(str, rf.num)),
               "denominator": list(map(str, rf.den))}
    return OutputDocument("ratfun", payload), EXIT_OK


def _mult_str(table: CharacterTable, coeffs) -> str:
    parts = []
    for lbl, q in zip(table.labels, coeffs):
        if q:
            q = Fraction(q)
            parts.append(lbl if q == 1 else f"{q}*{lbl}")
    return " + ".join(parts) if parts else "0"


def cmd_closedform(args) -> tuple[OutputDocument, int]:
    _degree(args.degree)
    ctx = resolve_group(args)
    if ctx.table is None:
        raise InputError("closedform needs a character table")
    table = ctx.table
    cd = table.classes
    sel = args.spec.split(":")
    lines: list[dict] = []
    kind = sel[0]
    max_fields = {"regular": 2, "quotient": 3, "central": 2, "onedim": 2}
    if len(sel) > max_fields.get(kind, 0):
        raise InputError(
            f"{args.spec}: spec selector must be regular[:m], quotient:<name>[:m], "
            "central:<name> or onedim:<label>"
        )
    if kind == "regular":
        spec = ctx.subgroups.get("trivial") or subgroup_spec(cd, (0,))
        forms = burnside_regular_forms(cd, spec, _copies(sel, 1, spec, args.spec))
        _closed_form_lines(lines, table, forms, args.degree, quotient=True)
    elif kind == "quotient":
        if len(sel) < 2 or sel[1] not in ctx.subgroups:
            raise InputError(
                "quotient:<subgroup>[:m] with subgroup one of: "
                + ", ".join(sorted(ctx.subgroups))
            )
        spec = ctx.subgroups[sel[1]]
        forms = burnside_regular_forms(cd, spec, _copies(sel, 2, spec, args.spec))
        _closed_form_lines(lines, table, forms, args.degree, quotient=True)
    elif kind == "central":
        spec = ctx.central_spec(sel[1]) if len(sel) > 1 else None
        if spec is None and not ctx.central:
            raise InputError(f"group {ctx.name} has no central:<name> spec")
        if spec is None:
            raise InputError(
                "central:<name> with name one of: " + ", ".join(sorted(ctx.central))
            )
        forms = central_forms(cd, spec)
        _closed_form_lines(lines, table, forms, args.degree, quotient=False)
    elif kind == "onedim":
        if len(sel) < 2:
            raise InputError("onedim:<character label>")
        chi = ctx.character(sel[1])
        forms = one_dim_forms(chi, table)
        lines.append({"item": "rule", "value": "powers of a one-dimensional character"})
        lines.append({"item": "multiplicative order", "value": str(forms.order)})
        lines.append(
            {"item": "lambda_t", "value": f"{table.labels[0]} + {sel[1]}*t"}
        )
        for j, lbl in enumerate(table.labels):
            rf = forms.genfun(j)
            if rf.num:
                lines.append({"item": f"<{lbl}, S_t>", "value": str(rf)})
    payload = {"group": ctx.name, "spec": args.spec, "lines": lines}
    return OutputDocument("closedform", payload), EXIT_OK


def _closed_form_lines(lines, table, forms: CentralForms, degree, quotient: bool):
    # m*Pi for the coset action on G/N (quotient) or m*zeta_0: lambda_t per
    # class, the decompositions assembled from the per-class closed forms
    # (when every class has one), then the coprime-degree rule
    cd = table.classes
    if quotient:
        lines.append({"item": "rule", "value": "divisor product form for a periodic character"})
        chi = forms.character()
        lines.append({"item": "character", "value": _mult_str(table, decompose(chi, table))})
    else:
        rule = "central one-dimensional character extended by zero"
        lines.append({"item": "rule", "value": rule})
    polys = []
    for c in range(cd.class_count):
        try:
            poly = forms.lambda_poly(c)
        except NonIntegerExponentError as exc:
            lines.append({"item": f"lambda_t at {cd.names[c]}", "value": f"({exc})"})
            continue
        polys.append(poly)
        if quotient:
            h = forms.coset_orders[c]
            base = "1+t" if h == 1 else (f"1+t^{h}" if h % 2 else f"1-t^{h}")
            value = f"({base})^{forms.spec.multiplier // h} = " + format_poly(poly)
        else:
            value = _cyc_poly_str(poly)
        lines.append({"item": f"lambda_t at {cd.names[c]}", "value": value})
    if len(polys) == cd.class_count:
        sym_series = [forms.sym_series(c, degree) for c in range(cd.class_count)]
        for n in range(1, degree + 1):
            ext_fn = ClassFunction(cd, [p[n] if n < len(p) else 0 for p in polys])
            sym_fn = ClassFunction(cd, [series[n] for series in sym_series])
            for tag, fn in (("ext", ext_fn), ("S", sym_fn)):
                value = _mult_str(table, decompose(fn, table))
                lines.append({"item": f"{tag}^{n} decomposition", "value": value})
    quotient_order = forms.spec.subgroup.quotient_order
    for n in range(1, degree + 1):
        if gcd(n, quotient_order) == 1:
            for op, tag in ((SYM, "S"), (EXT, "ext")):
                value = _mult_str(table, decompose(forms.shortcut(n, op), table))
                lines.append({"item": f"coprime-degree rule {tag}^{n}", "value": value})


def _cyc_poly_str(coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        txt = repr(c)
        if i == 0:
            parts.append(txt)
        else:
            t = "t" if i == 1 else f"t^{i}"
            parts.append(t if txt == "1" else f"({txt})*{t}")
    return " + ".join(parts) if parts else "0"


def cmd_verify(args) -> tuple[OutputDocument, int]:
    _degree(args.degree)
    ctx = resolve_group(args)
    checks = verify_checks(ctx, args.degree)
    doc = OutputDocument("report", {"group": ctx.name, "checks": checks})
    code = EXIT_OK if all(c["ok"] for c in checks) else EXIT_VERIFY
    return doc, code


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line with exit 2, like every other input error
        self.exit(EXIT_INPUT, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state in
    it, and each build leaves cyclic argparse garbage."""
    parser = _Parser(
        prog="symext",
        description="Exact symmetric/exterior power decompositions of group characters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_char=False):
        p.add_argument("--group", help="builtin selector (S3, D2n:8, Hp:5) or spec file")
        p.add_argument(
            "--generators",
            help="semicolon-separated cycle strings, e.g. '(0 1);(0 1 2)'",
        )
        if with_char:
            p.add_argument(
                "--char",
                required=True,
                help="character label, or 'regular' / 'natural'",
            )
        p.add_argument(
            "--format", default="plain", choices=["plain", "csv", "machine"]
        )

    p = sub.add_parser("decompose", help="multiplicity table of S^i or exterior powers")
    common(p, with_char=True)
    p.add_argument("--op", default=SYM, choices=[SYM, EXT])
    p.add_argument("--degree", type=int, default=10)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("genfun", help="multiplicity generating function")
    common(p, with_char=True)
    p.add_argument("--irr", required=True, help="irreducible label or 1-based index")
    p.add_argument("--op", default=SYM, choices=[SYM, EXT])
    p.add_argument("--series", type=int, default=None, metavar="N",
                   help="print coefficients 0..N instead of the rational form")
    p.add_argument("--check-consistency", action="store_true",
                   help="recompute through the multiplicity table and compare")
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("closedform", help="shortcut forms for special characters")
    common(p)
    p.add_argument("--spec", required=True,
                   help="regular[:m] | quotient:<subgroup>[:m] | central:<name> | onedim:<label>")
    p.add_argument("--degree", type=int, default=10)
    p.set_defaults(func=cmd_closedform)

    p = sub.add_parser("verify", help="run every identity check attached to the group")
    common(p)
    p.add_argument("--degree", type=int, default=10)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
    except Exception as exc:
        # ValueError and KeyError are InputError and the other input checks;
        # every table here is validated, so a multiplicity that is not a
        # nonnegative integer of a genuine character is a fault inside
        # symext, as is any other exception
        multiplicity = (NonIntegralMultiplicityError, NonRationalMultiplicityError)
        if isinstance(exc, (ValueError, KeyError)) and not isinstance(exc, multiplicity):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print("internal error: " + str(exc).replace("\n", " "), file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(doc.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
