"""Bring your own group: spec files and permutation generators.

Groups outside the builtin catalog enter either as a JSON group-spec file
(conjugacy classes + character table, schema documented in the README) or
as permutation generators.  The script writes a spec for the alternating
group A4 out of the builtin table, reloads it, runs the full verification
battery, and also enumerates the group from two generators.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from symext import class_data, enumerate_group, get_group, standard_characters
from symext.catalog import dump_group_spec, load_group_spec
from symext.cli import main
from symext.permgroup import Permutation

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "a4.json"
    doc = dump_group_spec(get_group("A4"), generators=["(0 1 2)", "(0 1)(2 3)"])
    doc["normal_subgroups"] = {"V": [0, 1]}
    path.write_text(json.dumps(doc, indent=1))
    print(f"wrote {path.name}: {len(path.read_text())} bytes")

    ctx = load_group_spec(str(path))
    print("loaded group:", ctx.name, "with classes", ctx.table.classes.names)
    print("natural character from the generators:", ctx.natural)

    print("\nrunning the verification battery on the spec file:")
    code = main(["verify", "--group", str(path), "--degree", "8"])
    print("verify exit code:", code)

# pure generator input: the engine derives the class skeleton by enumeration
print("\nenumerating from generators (0 1 2 3 4), (0 1 2):")
gens = [Permutation.from_cycles("(0 1 2 3 4)", 5), Permutation.from_cycles("(0 1 2)", 5)]
group = enumerate_group(gens)
cd = class_data(group)
print("order:", len(group), "class sizes:", cd.sizes, "orders:", cd.rep_orders)
regular, natural = standard_characters(group, cd)
print("natural character:", natural)
