"""Fuzz tests of the input contract: a spec file with one field replaced by an
arbitrary JSON value or one key deleted or renamed, and argv drawn from a
small grammar of the CLI flags.

Every run must exit 0, 1 or 2 (never 3, an internal fault), print at most
one line on stderr, and raise no traceback.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symext.catalog import dump_group_spec, get_group
from symext.cli import main


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv: list[str]) -> None:
    code, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert len(err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err


def base_specs() -> list[dict]:
    s3 = dump_group_spec(get_group("S3"), generators=["(0 1)", "(0 1 2)"])
    s3["normal_subgroups"] = {"A3": [0, 2]}
    s3["central_chars"] = {
        "coset": {"subgroup": "A3", "zeta": {"0": 0, "2": 0}, "multiplier": 2}
    }
    return [s3, dump_group_spec(get_group("D2n", 5))]


def paths(node, prefix=()):
    """Every path from the root of a JSON document to one of its nodes."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1100) | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def mutated_spec(draw):
    """A base spec with one field replaced by an arbitrary JSON value, or one
    object key deleted or renamed (a prime_powers key, say, to another prime)."""
    doc = draw(st.sampled_from(base_specs()))
    path = draw(st.sampled_from(list(paths(doc))[1:]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    edit = draw(st.sampled_from(["replace", "delete", "rename"] if isinstance(node, dict)
                                else ["replace"]))
    if edit == "replace":
        node[path[-1]] = draw(json_values)
    else:
        value = node.pop(path[-1])
        if edit == "rename":
            node[draw(st.sampled_from(["2", "3", "5", "7"]) | st.text(max_size=3))] = value
    return doc


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


COMMANDS = st.sampled_from([
    ["verify", "--degree", "3"],
    ["decompose", "--char", "chi2", "--op", "ext", "--degree", "4"],
    ["closedform", "--spec", "central:coset", "--degree", "3"],
])


@settings(
    deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutated_spec(), COMMANDS)
def test_a_spec_with_one_field_replaced_keeps_the_input_contract(spec_path, doc, command):
    spec_path.write_text(json.dumps(doc))
    assert_contract(command + ["--group", str(spec_path)])


GROUPS = ["S3", "D2n:5", "Q4n:3", "Nope", "D2n:x", "D2n:0", "D2n:10000", "S3:2", ""]
GENERATORS = ["(0 1);(0 1 2)", "(0 -1)", "(0 1000)", "(0 999)", "(0 1)(1 2)", "(a b)",
              "((0 1)", "", ";", "(0 1 2 3 4 5 6 7);(0 1)"]
CHARS = ["regular", "natural", "chi1", "chi3", "chi9", "x"]
SPECS = ["regular", "regular:2", "regular:x", "regular:-1", "regular:0", "regular:167",
         "regular:166", "quotient:A3", "quotient:A3:500", "quotient:A3:501", "quotient:nope",
         "quotient", "central:nope", "onedim:chi2", "onedim:chi3", "onedim", "bogus"]
NUMBERS = ["-1", "0", "3", "1001", "x", "2.5"]


@st.composite
def argv(draw):
    """A subcommand with flags drawn from small value lists, each flag
    present or not."""
    command = draw(st.sampled_from(["decompose", "genfun", "closedform", "verify"]))
    flags = {"--group": GROUPS, "--generators": GENERATORS,
             "--format": ["plain", "csv", "machine", "xml"]}
    if command in ("decompose", "genfun"):
        flags.update({"--char": CHARS, "--op": ["sym", "ext", "both"]})
    if command == "genfun":
        flags.update({"--irr": ["chi1", "2", "0", "99", "x"], "--series": NUMBERS})
    else:
        flags["--degree"] = NUMBERS
    if command == "closedform":
        flags["--spec"] = SPECS
    out = [command]
    for flag, values in flags.items():
        if draw(st.booleans()):
            out += [flag, draw(st.sampled_from(values))]
    if command == "genfun" and draw(st.booleans()):
        out.append("--check-consistency")
    return out


@settings(deadline=None, max_examples=120)
@given(argv())
def test_argv_from_the_flag_grammar_keeps_the_input_contract(args):
    assert_contract(args)
