"""Command-line front end.

Subcommands: ``decompose`` (multiplicity tables), ``genfun`` (series or exact
rational generating functions), ``closedform`` (shortcut evaluations),
``verify`` (every identity check attached to a group).  Groups come from the
builtin catalog, from a JSON group-spec file, or from permutation generators.
Output is deterministic: the same invocation produces byte-identical text.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (a certification or cross-check inside symext failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from . import catalog
from .catalog import NoModelError, PermModel, get_perm_model, parse_group_selector
from .closedforms import (
    CentralCharSpec,
    CentralForms,
    InvalidCentralCharError,
    InvalidSubgroupError,
    NonIntegerExponentError,
    NormalSubgroupSpec,
    burnside_regular_forms,
    central_char_spec,
    central_forms,
    expand_product_form,
    one_dim_forms,
    quotient_pullback,
    subgroup_spec,
)
from .exactnum import Cyclotomic
from .genfun import (
    EXT,
    SYM,
    MultiplicityTable,
    format_poly,
    genfun_rational,
    genfun_rationals,
    genfun_series,
    multiplicity_table,
)
from .groupdata import (
    CharacterTable,
    ClassData,
    ClassFunction,
    NonIntegralMultiplicityError,
    NonRationalMultiplicityError,
    complete_power_maps,
    decompose,
    inner_product,
    regular_character,
    validate_table,
)
from .lambdaops import (
    CrossCheckError,
    LambdaSequence,
    char_poly,
    is_periodic,
    power_sum_check,
    product_form,
)
from .permgroup import (
    CapExceededError,
    Permutation,
    class_data,
    enumerate_group,
    parse_digits,
    standard_characters,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Largest --degree (decompose, closedform, verify) and genfun --series: the
# recurrences grow about as degree^2 per class, the class sums with the size
# of the integers; at 1000 the largest builtin regular character takes seconds.
MAX_DEGREE = 1000
# Largest spec-file root_order N and class count k (builtins: 100 and 55):
# reduction rows cost O(N phi(N)), the table check O(k^3) packed products.
MAX_ROOT_ORDER = 1000
MAX_CLASSES = 100


class InputError(ValueError):
    """Bad selector, file or flag; reported with exit code 2."""


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
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        header, rows = self.rows_for_tabulation()

        def esc(cell: str) -> str:
            if any(ch in cell for ch in ",\"\n"):
                return '"' + cell.replace('"', '""') + '"'
            return cell

        lines = [",".join(esc(c) for c in header)]
        lines += [",".join(esc(c) for c in r) for r in rows]
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "plain":
            return self.to_plain()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "machine":
            return self.to_machine() + "\n"
        raise InputError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# group resolution


@dataclass
class GroupContext:
    """A resolved group.  A builtin (family, param) builds its permutation model,
    natural character and central characters on first read; a spec file or
    --generators sets the model and central characters at load, validated."""

    name: str
    table: CharacterTable | None = None
    builtin: tuple[str, int | None] | None = None
    subgroups: dict[str, NormalSubgroupSpec] = field(default_factory=dict)
    transfers: dict = field(default_factory=dict)

    @cached_property
    def model(self) -> PermModel | None:
        try:
            return get_perm_model(*self.builtin) if self.builtin else None
        except NoModelError:
            return None

    @cached_property
    def natural(self) -> ClassFunction | None:
        # the fixed-point character, transported onto the table's class order
        if self.model is None:
            return None
        _, natural = standard_characters(self.model.group, self.model.data)
        return ClassFunction(self.classes, [natural.values[i] for i in self.model.matching])

    @cached_property
    def central(self) -> dict[str, CentralCharSpec]:
        return catalog.central_characters(*self.builtin) if self.builtin else {}

    @property
    def classes(self) -> ClassData:
        if self.table is not None:
            return self.table.classes
        return self.model.data

    def character(self, selector: str) -> ClassFunction:
        if selector == "regular":
            return regular_character(self.classes)
        if selector == "natural":
            if self.natural is None:
                raise InputError("no permutation model, so no natural character")
            return self.natural
        if self.table is None:
            raise InputError(
                "character selection beyond regular/natural needs a character table"
            )
        try:
            return self.table.character(selector)
        except KeyError:
            raise InputError(
                f"unknown character {selector!r}; available: "
                + ", ".join(self.table.labels)
            ) from None


def _builtin_context(family: str, param: int | None) -> GroupContext:
    table = catalog.get_group(family, param)
    ctx = GroupContext(name=table.name or family, table=table, builtin=(family, param))
    for name, idx in catalog.named_subgroups(family, param).items():
        ctx.subgroups[name] = subgroup_spec(table.classes, idx)
    ctx.transfers = catalog.quotient_transfers(family, param)
    return ctx


def _degree(value: int, flag: str = "--degree") -> int:
    if not 0 <= value <= MAX_DEGREE:
        raise InputError(f"{flag} must be in 0..{MAX_DEGREE}")
    return value


def _integer(value, where: str) -> int:
    # a JSON integer; bool is an int subclass in Python but not in JSON
    if type(value) is not int:
        raise InputError(f"{where} must be an integer, not {json.dumps(value)}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where} must be a JSON object")
    return value


def _indices(value, where: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise InputError(f"{where} must be a list of class indices")
    return tuple(_integer(i, where) for i in value)


def _parse_cyclo(value, root_order: int, where: str) -> Cyclotomic:
    if not isinstance(value, list) or not all(
        isinstance(t, list) and len(t) == 3 for t in value
    ):
        raise InputError(f"{where}: a value is a list of [exponent, num, den] triples")
    terms = [[_integer(x, where) for x in t] for t in value]
    try:
        return Cyclotomic.from_terms(root_order, [(e, Fraction(n, d)) for e, n, d in terms])
    except ZeroDivisionError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _multiplier(m: int, where: str) -> int:
    # lambda_t of m*zeta_0 has degree m at the identity
    if not 1 <= m <= MAX_DEGREE:
        raise InputError(f"{where}: the multiplier {m} is not in 1..{MAX_DEGREE}")
    return m


def _copies(sel: list[str], i: int, sub: NormalSubgroupSpec, text: str) -> int:
    """The m of regular[:m] or quotient:<N>[:m] (default 1); m*|G/N| is the
    multiplier of the closed form."""
    m = parse_digits(sel[i] if len(sel) > i else "1", "--spec m")
    if m is None:
        raise InputError(f"{text}: m must be a positive integer")
    _multiplier(m * sub.quotient_order, text)
    return m


def load_group_spec(path: str) -> GroupContext:
    """Load and fully validate a JSON group-spec file; failures are fatal."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read group spec: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's digit limit, bad UTF-8
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    if raw.get("format_version") != 1:
        raise InputError(f"{path}: format_version must be 1")
    try:
        name = str(raw["name"])
        order = _integer(raw["order"], f"{path}: order")
        root_order = _integer(raw["root_order"], f"{path}: root_order")
        classes = raw["classes"]
        irreducibles = raw["irreducibles"]
    except KeyError as exc:
        raise InputError(f"{path}: missing required field {exc}") from exc
    for field, value in (("classes", classes), ("irreducibles", irreducibles)):
        if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
            raise InputError(f"{path}: {field} must be a list of JSON objects")
    if not classes:
        raise InputError(f"{path}: classes must not be empty")
    if len(classes) > MAX_CLASSES:
        raise InputError(f"{path}: at most {MAX_CLASSES} classes are supported")
    if not 1 <= root_order <= MAX_ROOT_ORDER:
        raise InputError(f"{path}: root_order must be in 1..{MAX_ROOT_ORDER}")

    def class_index(value, where: str) -> int:
        if not 0 <= _integer(value, where) < len(classes):
            raise InputError(f"{where}: class index {value} is not in 0..{len(classes) - 1}")
        return value

    names, sizes, rep_orders, inverse = [], [], [], []
    prime_maps: dict[int, list[int]] = {}
    for i, cls in enumerate(classes):
        where = f"{path}: classes[{i}]"
        try:
            names.append(str(cls["name"]))
            sizes.append(_integer(cls["size"], f"{where}.size"))
            rep_orders.append(_integer(cls["rep_order"], f"{where}.rep_order"))
            inverse.append(class_index(cls["inverse"], f"{where}.inverse"))
        except KeyError as exc:
            raise InputError(f"{where}: missing field {exc}") from exc
        if sizes[-1] < 1 or rep_orders[-1] < 1:
            raise InputError(f"{where}: size and rep_order must be positive")
        for p_raw, image in _object(cls.get("prime_powers", {}), f"{where}.prime_powers").items():
            p = parse_digits(p_raw, f"{where}.prime_powers key")
            if p is None:
                raise InputError(f"{where}.prime_powers: key {p_raw!r} is not an integer")
            image = class_index(image, f"{where}.prime_powers[{p_raw!r}]")
            prime_maps.setdefault(p, [0] * len(classes))[i] = image
    exponent = lcm(*rep_orders)
    if root_order % exponent:
        raise InputError(
            f"{path}: root_order {root_order} is not a multiple of the exponent {exponent}"
        )
    value_rows = []
    labels = []
    for j, irr in enumerate(irreducibles):
        where = f"{path}: irreducibles[{j}]"
        labels.append(str(irr.get("name", f"chi{j+1}")))
        vals = irr.get("values")
        if not isinstance(vals, list) or len(vals) != len(classes):
            raise InputError(f"{where}: need one value per class")
        value_rows.append(
            [_parse_cyclo(v, root_order, f"{where}.values[{c}]") for c, v in enumerate(vals)]
        )
    try:
        maps = complete_power_maps(exponent, prime_maps, value_rows)
    except (KeyError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    cd = ClassData(order, exponent, names, sizes, rep_orders, inverse, maps)
    table = CharacterTable(cd, [ClassFunction(cd, row) for row in value_rows], labels, name)
    problems = validate_table(table)
    if problems:
        raise InputError(
            f"{path}: table validation failed: " + "; ".join(problems)
        )
    ctx = GroupContext(name=name, table=table)
    gens = raw.get("generators")
    if gens:
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise InputError(f"{path}: generators must be a list of cycle strings")
        group = _enumerate_generators(gens)
        _attach_model(ctx, group, f"{path}: generators do not match the declared classes")
    subgroups = _object(raw.get("normal_subgroups", {}), f"{path}: normal_subgroups")
    for sub_name, idx in subgroups.items():
        where = f"{path}: normal_subgroups[{sub_name!r}]"
        try:
            ctx.subgroups[sub_name] = subgroup_spec(cd, _indices(idx, where))
        except InvalidSubgroupError as exc:
            raise InputError(f"{where}: {exc}") from exc
    for cname, cc in _object(raw.get("central_chars", {}), f"{path}: central_chars").items():
        where = f"{path}: central_chars[{cname!r}]"
        sub = _object(cc, where).get("subgroup")
        if isinstance(sub, str):
            if sub not in ctx.subgroups:
                raise InputError(f"{where}: unknown subgroup {sub!r}")
            spec = ctx.subgroups[sub]
        else:
            try:
                spec = subgroup_spec(cd, _indices(sub, f"{where}.subgroup"))
            except InvalidSubgroupError as exc:
                raise InputError(f"{where}: {exc}") from exc
        zeta = {}
        for c_raw, e in _object(cc.get("zeta", {}), f"{where}.zeta").items():
            c = parse_digits(c_raw, f"{where}.zeta key")
            if c is None:
                raise InputError(f"{where}.zeta: key {c_raw!r} is not a class index")
            zeta[c] = Cyclotomic.root_of_unity(root_order, _integer(e, f"{where}.zeta"))
        multiplier = _multiplier(
            _integer(cc.get("multiplier", 1), f"{where}.multiplier"), f"{where}.multiplier"
        )
        try:
            ctx.central[cname] = central_char_spec(cd, spec, zeta, multiplier)
        except InvalidCentralCharError as exc:
            raise InputError(f"{where}: {exc}") from exc
    return ctx


def cyclo_terms(value: Cyclotomic, root_order: int) -> list[list[int]]:
    """Serialize a value as [exponent, numerator, denominator] triples."""
    lifted = value.lift(root_order)
    return [
        [i, c.numerator, c.denominator] for i, c in enumerate(lifted.coeffs) if c != 0
    ]


def dump_group_spec(table: CharacterTable, generators: list[str] | None = None) -> dict:
    """The JSON document for a character table, in group-spec format."""
    cd = table.classes
    root = cd.exponent
    classes = []
    for c in range(cd.class_count):
        classes.append(
            {
                "name": cd.names[c],
                "size": cd.sizes[c],
                "rep_order": cd.rep_orders[c],
                "inverse": cd.inverse_class[c],
                "prime_powers": {
                    str(p): m[c]
                    for p, m in sorted(cd.prime_power_maps.items())
                    if root % p == 0
                },
            }
        )
    irreducibles = [
        {
            "name": lbl,
            "values": [cyclo_terms(v, root) for v in chi.values],
        }
        for lbl, chi in zip(table.labels, table.irreducibles)
    ]
    doc = {
        "format_version": 1,
        "name": table.name or "group",
        "order": cd.group_order,
        "root_order": root,
        "classes": classes,
        "irreducibles": irreducibles,
    }
    if generators:
        doc["generators"] = generators
    return doc


def _enumerate_generators(cycles: list[str]):
    perms = [Permutation.from_cycles(g) for g in cycles if g.strip()]
    if not perms:
        raise InputError("no generators given")
    degree = max(p.degree for p in perms)
    perms = [Permutation(list(p.images) + list(range(p.degree, degree))) for p in perms]
    try:
        return enumerate_group(perms)
    except CapExceededError as exc:
        raise InputError(f"generators: {exc}") from exc


def _attach_model(ctx: GroupContext, group, mismatch: str) -> None:
    """Attach the permutation group ``group`` as the model of ctx's table."""
    derived = class_data(group)
    matching = catalog.match_class_data(ctx.table.classes, derived)
    if matching is None:
        raise InputError(mismatch)
    ctx.model = PermModel(group, derived, matching)


def resolve_group(args) -> GroupContext:
    selector = getattr(args, "group", None)
    generators = getattr(args, "generators", None)
    if generators and not selector:
        group = _enumerate_generators(generators.split(";"))
        data = class_data(group)
        ctx = GroupContext(name=f"<generated order {len(group)}>")
        ctx.model = PermModel(group, data, tuple(range(data.class_count)))
        return ctx
    if not selector:
        raise InputError("a group is required (--group or --generators)")
    if os.path.exists(selector) or selector.endswith(".json"):
        ctx = load_group_spec(selector)
    else:
        family, param = parse_group_selector(selector)
        try:
            ctx = _builtin_context(family, param)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if generators:  # a table plus explicit generators
        group = _enumerate_generators(generators.split(";"))
        _attach_model(ctx, group, "generators do not realize the selected group")
    return ctx


# ---------------------------------------------------------------------------
# subcommands


def _op_of(args) -> str:
    if args.op not in (SYM, EXT):
        raise InputError("--op must be sym or ext")
    return args.op


def cmd_decompose(args) -> tuple[OutputDocument, int]:
    ctx = resolve_group(args)
    if ctx.table is None:
        raise InputError("decompose needs a character table")
    _degree(args.degree)
    chi = ctx.character(args.char)
    mt = multiplicity_table(chi, ctx.table, _op_of(args), args.degree)
    doc = OutputDocument(
        "table",
        {
            "group": ctx.name,
            "character": args.char,
            "op": args.op,
            "columns": list(ctx.table.labels),
            "rows": [list(row) for row in mt.rows],
        },
    )
    return doc, EXIT_OK


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
    op = _op_of(args)
    if args.series is not None:
        coeffs = genfun_series(
            chi, ctx.table, j, op, _degree(args.series, "--series"),
            cross_check=args.check_consistency,
        )
        doc = OutputDocument(
            "series",
            {
                "group": ctx.name,
                "character": args.char,
                "irreducible": ctx.table.labels[j],
                "op": op,
                "coefficients": [str(c) for c in coeffs],
            },
        )
        return doc, EXIT_OK
    rf = genfun_rational(chi, ctx.table, j, op)
    if args.check_consistency:
        want = genfun_series(chi, ctx.table, j, op, 25, cross_check=True)
        if rf.series(25) != want:
            raise AssertionError("rational form disagrees with the series routes")
    doc = OutputDocument(
        "ratfun",
        {
            "group": ctx.name,
            "character": args.char,
            "irreducible": ctx.table.labels[j],
            "op": op,
            "display": str(rf),
            "numerator": [str(c) for c in rf.num],
            "denominator": [str(c) for c in rf.den],
        },
    )
    return doc, EXIT_OK


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
        if len(sel) < 2 or sel[1] not in ctx.central:
            raise InputError(
                "central:<name> with name one of: " + ", ".join(sorted(ctx.central))
            )
        forms = central_forms(cd, ctx.central[sel[1]])
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
    doc = OutputDocument(
        "closedform", {"group": ctx.name, "spec": args.spec, "lines": lines}
    )
    return doc, EXIT_OK


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


# ---------------------------------------------------------------------------
# verify


def _verify_checks(ctx: GroupContext, degree: int) -> list[dict]:
    checks: list[dict] = []

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
    # product form reconstructs the per-class polynomials of the regular character
    pf = product_form(reg)
    polys = [char_poly(reg, c) for c in range(cd.class_count)]
    ok = all(expand_product_form(pf, c, len(p) - 1) == p for c, p in enumerate(polys))
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
    # dual route for every irreducible: the certified symmetric-power table,
    # with each per-class S^n recomputed from psi by the power-sum identity
    ok = True
    detail = ""
    for j, chi in enumerate(table.irreducibles):
        try:
            seq = LambdaSequence.compute(chi, degree, expect_character=True)
            power_sum_check(seq)
            MultiplicityTable.certify(seq, table, SYM)
        except Exception as exc:
            ok = False
            detail = f"{table.labels[j]}: {exc}"
            break
    record("dual-route-coefficients", ok, detail)
    # one-dimensional shortcut agreement
    ok = True
    for j, chi in enumerate(table.irreducibles):
        if chi.values[0] != 1:
            continue
        forms = one_dim_forms(chi, table)
        seq = LambdaSequence.compute(chi, 12, expect_character=True)
        for i in range(13):
            if seq.syms[i] != forms.sym_power(i):
                ok = False
        js = range(table.classes.class_count)
        try:
            if genfun_rationals(chi, table, js, SYM) != [forms.genfun(jj) for jj in js]:
                ok = False
        except CrossCheckError:  # the column fails the numerator-degree certificate
            ok = False
    record("one-dimensional-forms", ok)
    for name, spec in sorted(ctx.subgroups.items()):
        forms = burnside_regular_forms(cd, spec, 1)
        record(f"quotient-permutation-forms:{name}", *_closed_form_check(forms, degree))
    for name, spec in sorted(ctx.central.items()):
        record(f"central-forms:{name}", *_closed_form_check(central_forms(cd, spec), degree))
    for name, (qtable, qmap) in sorted(ctx.transfers.items()):
        try:
            qt = quotient_pullback(ctx.table, qtable, qmap)
        except Exception as exc:
            record(f"quotient-transfer:{name}", False, str(exc))
            continue
        ok = True
        pulled = qt.pulled_irreducibles()
        for chi_q in qtable.irreducibles:
            seq_q = LambdaSequence.compute(chi_q, degree, True)
            seq_g = LambdaSequence.compute(qt.pull(chi_q), degree, True)
            for i in range(degree + 1):
                for j, phi in enumerate(pulled):
                    lhs = inner_product(phi, seq_g.syms[i])
                    rhs = inner_product(qtable.irreducibles[j], seq_q.syms[i])
                    if lhs != rhs:
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


def _closed_form_check(forms: CentralForms, degree: int) -> tuple[bool, str]:
    """m*zeta_0 against the recurrences: lambda_t at every class with a closed
    form, lambda^n = 0 there for m < n <= min(degree, 2m), and the
    coprime-degree rule for n <= min(|G/N| + 5, degree, 2m), all off one
    LambdaSequence to max(m, min(degree, 2m))."""
    cd, spec = forms.cd, forms.spec
    m = spec.multiplier
    bound = min(degree, 2 * m)
    seq = LambdaSequence.compute(forms.character(), max(m, bound))
    closed = [c for c in range(cd.class_count) if m % forms.coset_orders[c] == 0]
    ok = True
    for c in closed:
        lam = [f.values[c] for f in seq.lambdas]
        if lam[: m + 1] != forms.lambda_poly(c) or any(lam[m + 1 : bound + 1]):
            ok = False
    qo = spec.subgroup.quotient_order
    for n in range(1, min(qo + 5, bound) + 1):
        if gcd(n, qo) == 1 and (
            seq.syms[n] != forms.shortcut(n, SYM) or seq.lambdas[n] != forms.shortcut(n, EXT)
        ):
            ok = False
    missing = [cd.names[c] for c in range(cd.class_count) if c not in closed]
    return ok, f"no closed form at {', '.join(missing)}" if missing else ""


def cmd_verify(args) -> tuple[OutputDocument, int]:
    _degree(args.degree)
    ctx = resolve_group(args)
    checks = _verify_checks(ctx, args.degree)
    doc = OutputDocument("report", {"group": ctx.name, "checks": checks})
    code = EXIT_OK if all(c["ok"] for c in checks) else EXIT_VERIFY
    return doc, code


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line with exit 2, like every other input error
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
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
