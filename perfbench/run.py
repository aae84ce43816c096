"""symext benchmark: fixed CLI job lists run in-process through symext.cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload verify-dihedral --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one fresh interpreter each
    python3 perfbench/run.py --record-digests    # re-record perfbench/digests.json

One run sets up the workload's groups cold several times (``setup_s`` is the
median), then repeats passes over the job list until ``--seconds`` have gone
by (``solve_s`` is the median pass).  Both are seconds at a fixed reference
speed (see speedref.py), so that a shared host's drifting speed does not
show as a change of the program.  Every job's output is checked.  With
``--trace 1`` the run goes on with two traced iterations (cold setup plus one
pass each) and reports per-layer counts and times instead.  The last line of
standard output is one JSON object; the lines before it are for people.
See perfbench/README.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

from layertrace import LAYERS, Tracer
from speedref import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
SETUP_MIN_REPS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 25

# A job template is a CLI argv; a tuple in it is a set of labels the seed
# chooses from.  Each set holds irreducibles of one degree, so every seed
# asks for the same amount of work.
A5_DEGREE_3 = ("chi4", "chi5")
HP7_DEGREE_7 = tuple(f"tau_{k}" for k in range(1, 7))
WORKLOADS = {
    "verify-dihedral": {
        "groups": ["D2n:50"],
        "jobs": [["verify", "--group", "D2n:50"]],
    },
    "deep-series": {
        "groups": ["A5"],
        "jobs": [
            ["decompose", "--group", "A5", "--char", A5_DEGREE_3, "--op", "sym", "--degree", "300"],
            ["decompose", "--group", "A5", "--char", A5_DEGREE_3, "--op", "ext", "--degree", "300"],
        ],
    },
    "closed-forms": {
        "groups": ["S4", "Hp:7"],
        "jobs": [
            ["genfun", "--group", "S4", "--char", "regular", "--irr", "chi1", "--op", "sym"],
            ["genfun", "--group", "Hp:7", "--char", HP7_DEGREE_7, "--irr", "chi_0_0", "--op", "sym"],
            ["genfun", "--group", "Hp:7", "--char", HP7_DEGREE_7, "--irr", HP7_DEGREE_7, "--op", "sym"],
            ["closedform", "--group", "Hp:7", "--spec", "central:zeta_1", "--degree", "8"],
            ["closedform", "--group", "S4", "--spec", "quotient:V", "--degree", "10"],
        ],
    },
}

# Degrees of the A5 irreducibles, for the dimension identity of decompose rows.
A5_DEGREES = {"chi1": 1, "chi2": 4, "chi3": 5, "chi4": 3, "chi5": 3}

# Per-layer metrics: the spans whose call counts and outermost inclusive
# times are reported; every layer's self time is reported as well.
CALL_METRICS = [
    "exactnum.mul", "exactnum.add", "exactnum.to_rational",
    "groupdata.inner_product", "groupdata.decompose", "groupdata.validate_table",
    "lambdaops.compute", "lambdaops.char_poly", "lambdaops.sym_series_at_class",
    "genfun.poly_gcd", "genfun.poly_mul",
    "closedforms.expand_product_form",
    "catalog.get_perm_model",
]
TIME_METRICS = [
    "exactnum.mul", "exactnum.add",
    "groupdata.inner_product", "groupdata.decompose", "groupdata.validate_table",
    "lambdaops.compute", "lambdaops.char_poly", "lambdaops.sym_series_at_class",
    "genfun.genfun_rational", "genfun.poly_gcd",
    "genfun.multiplicity_table", "genfun.genfun_series_table",
    "closedforms.central_forms", "closedforms.burnside_regular_forms",
    "closedforms.one_dim_forms",
    "catalog.get_group", "catalog.get_perm_model",
    "permgroup.enumerate_group", "permgroup.class_data",
    "cli.resolve_group", "cli.render",
]


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# inputs


def pick_jobs(workload: str, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    return [
        [rng.choice(part) if isinstance(part, tuple) else part for part in template]
        for template in WORKLOADS[workload]["jobs"]
    ]


def every_job(workload: str) -> list[list[str]]:
    """Every job any seed can produce for the workload."""
    out = []
    for template in WORKLOADS[workload]["jobs"]:
        parts = [part if isinstance(part, tuple) else (part,) for part in template]
        out.extend(list(argv) for argv in itertools.product(*parts))
    return out


def load_symext():
    """Import symext from the checkout's src/ and nowhere else."""
    if not (SRC / "symext" / "cli.py").is_file():
        raise BenchError(f"no symext sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from symext import catalog, cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"symext was imported from {cli.__file__}, not {SRC}")
    return cli, catalog


def load_digests() -> dict[str, str]:
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {DIGESTS.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# running and checking jobs


def run_job(cli, argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def job_problems(argv, code, out: str, err: str, digests: dict[str, str]) -> list[str]:
    """Why a job's result is wrong; empty when it is right."""
    if code != 0:
        return [f"exit {code}: {err.strip()[-400:]}"]
    problems = []
    want = digests.get(" ".join(argv))
    got = hashlib.sha256(out.encode()).hexdigest()
    if want is None:
        problems.append("no recorded stdout digest")
    elif got != want:
        problems.append(f"stdout sha256 {got} differs from the recorded {want}")
    lines = out.splitlines()
    try:
        if argv[0] == "verify":
            bad = [ln.split()[0] for ln in lines[1:] if ln.split()[1:2] != ["ok"]]
            if bad or len(lines) < 2:
                problems.append(f"verify checks not ok: {bad}")
        elif argv[0] == "decompose":
            problems += dimension_problems(argv, lines)
    except (IndexError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def dimension_problems(argv: list[str], lines: list[str]) -> list[str]:
    """Rows that break sum_j m_j deg(chi_j) = C(d+i-1, i) (sym) or C(d, i) (ext)."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    d, op, degree = A5_DEGREES[opts["--char"]], opts["--op"], int(opts["--degree"])
    header = lines[0].split() if lines else []
    rows = [ln.split() for ln in lines[1:]]
    if header[1:] != list(A5_DEGREES) or len(rows) != degree + 1:
        return [f"decompose table has header {header[:8]} and {len(rows)} rows"]
    problems = []
    for row in rows:
        i = int(row[0])
        dim = sum(int(m) * A5_DEGREES[lbl] for lbl, m in zip(header[1:], row[1:]))
        want = comb(d + i - 1, i) if op == "sym" else comb(d, i)
        if dim != want:
            problems.append(f"degree {i}: dimension {dim}, expected {want}")
    return problems


def self_check() -> None:
    """Show that a wrong digest and a broken dimension row count as failures."""
    argv = ["decompose", "--group", "A5", "--char", "chi4", "--op", "sym", "--degree", "1"]
    good = "degree  chi1  chi2  chi3  chi4  chi5\n0       1     0     0     0     0\n1       0     0     0     1     0\n"
    broken = good.replace("1       0     0     0     1", "1       0     0     0     0")
    digest = lambda text: {" ".join(argv): hashlib.sha256(text.encode()).hexdigest()}
    cases = [
        (good, digest(good), False),
        (good, {" ".join(argv): "0" * 64}, True),
        (broken, digest(broken), True),
    ]
    for out, digests, should_fail in cases:
        if bool(job_problems(argv, 0, out, "", digests)) != should_fail:
            raise BenchError("the output checks do not catch a deliberately wrong output")


# ---------------------------------------------------------------------------
# measuring


def build_groups(cli, clear_tables, groups: list[str]) -> None:
    """Cold build of every group the workload uses."""
    clear_tables()
    for g in groups:
        cli.resolve_group(argparse.Namespace(group=g, generators=None))


def measure_setup(cli, clear_tables, groups: list[str], probe: SpeedProbe) -> list[float]:
    """Reference-speed times of repeated cold builds."""
    times: list[float] = []
    started = perf_counter()
    while len(times) < SETUP_MIN_REPS or (
        perf_counter() - started < SETUP_MIN_S and len(times) < SETUP_MAX_REPS
    ):
        times.append(probe.measure(build_groups, cli, clear_tables, groups)[1])
    return times


def run_jobs(cli, jobs) -> tuple[list, list[float]]:
    results, times = [], []
    for argv in jobs:
        t = perf_counter()
        results.append(run_job(cli, argv))
        times.append(perf_counter() - t)
    return results, times


def check_pass(jobs, results, digests, tally) -> None:
    for argv, result in zip(jobs, results):
        problems = job_problems(argv, *result, digests)
        tally["attempted"] += 1
        if problems:
            tally["failed"] += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)


def traced_iteration(cli, clear_tables, tracer, groups, jobs, digests, tally) -> dict:
    tracer.reset()
    t = perf_counter()
    build_groups(cli, clear_tables, groups)
    setup = perf_counter() - t
    results, times = run_jobs(cli, jobs)
    solve = sum(times)
    check_pass(jobs, results, digests, tally)
    return {
        "calls": tracer.calls,
        "inclusive": tracer.inclusive,
        "self": tracer.self_s,
        "scalar": tracer.scalar_s,
        "setup_s": setup,
        "solve_s": solve,
        "residual_s": setup + solve - tracer.top_s,
    }


def layer_metrics(iterations: list[dict], untraced_solve: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced iterations, and any consistency problems."""
    problems = []
    first = iterations[0]
    for it in iterations[1:]:
        if it["calls"] != first["calls"]:
            diff = sorted(k for k in set(it["calls"]) | set(first["calls"])
                          if it["calls"].get(k) != first["calls"].get(k))
            problems.append(f"call counts differ between traced iterations: {diff[:8]}")
    for it in iterations:
        spanned = sum(it["self"].values()) + it["residual_s"]
        total = it["setup_s"] + it["solve_s"]
        if not 0 <= it["residual_s"] <= total or abs(spanned - total) > 1e-6 * total:
            problems.append(f"self times {spanned} do not add up to the traced {total}")

    mean = lambda key, field: statistics.fmean(it[field].get(key, 0.0) for it in iterations)
    metrics = {}
    for span in CALL_METRICS:
        metrics[f"{span}_calls"] = (first["calls"].get(span, 0), "count")
    for span in TIME_METRICS:
        metrics[f"{span}_s"] = (mean(span, "inclusive"), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (mean(layer, "self"), "s")
    traced_solve = statistics.fmean(it["solve_s"] for it in iterations)
    metrics["trace.setup_s"] = (statistics.fmean(it["setup_s"] for it in iterations), "s")
    metrics["trace.solve_s"] = (traced_solve, "s")
    metrics["trace.residual_s"] = (statistics.fmean(it["residual_s"] for it in iterations), "s")
    metrics["trace.overhead"] = (traced_solve / untraced_solve, "x")
    total_lines = 0
    for path in sorted((SRC / "symext").glob("*.py")):
        n = len(path.read_text().splitlines())
        total_lines += n
        if path.stem in LAYERS:
            metrics[f"{path.stem}.lines"] = (n, "count")
    metrics["symext.lines"] = (total_lines, "count")
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    self_check()
    digests = load_digests()
    cli, catalog = load_symext()
    clear_tables = catalog.get_group.cache_clear
    groups = WORKLOADS[workload]["groups"]
    jobs = pick_jobs(workload, seed)
    tally = {"attempted": 0, "failed": 0}

    probe = SpeedProbe()
    setup_times = measure_setup(cli, clear_tables, groups, probe)
    samples: list[float] = []
    walls: list[float] = []
    job_times: list[list[float]] = []
    started = perf_counter()
    while not samples or perf_counter() - started < seconds:
        (results, times), solve_s, wall_s = probe.measure(run_jobs, cli, jobs)
        check_pass(jobs, results, digests, tally)
        samples.append(solve_s)
        walls.append(wall_s)
        job_times.append(times)
    solve = statistics.median(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {workload} seed {seed}: " + " | ".join(" ".join(j) for j in jobs))
    print(
        f"{workload}: setup_s={statistics.median(setup_times):.4f} s (n={len(setup_times)})"
        f"  solve_s={solve:.4f} s (n={len(samples)})  peak_rss_mb={peak_rss_mb:.1f} MB"
        f"  fail_ratio={tally['failed'] / tally['attempted']:.4g}"
        f" ({tally['failed']}/{tally['attempted']} jobs)"
    )
    print("passes at reference speed (s): " + " ".join(f"{t:.4f}" for t in samples))
    print("passes wall, reference slices left out (s): " + " ".join(f"{t:.4f}" for t in walls))
    for j, argv in enumerate(jobs):
        print(f"  median job wall, slices in {statistics.median(p[j] for p in job_times):8.4f} s  {' '.join(argv)}")
    problems: list[str] = []
    if trace:
        tracer = Tracer()
        tracer.install()
        iterations = [
            traced_iteration(cli, clear_tables, tracer, groups, jobs, digests, tally)
            for _ in range(2)
        ]
        metrics, problems = layer_metrics(iterations, statistics.median(walls))
        print_shares(workload, iterations[0])
        print(f"tracing overhead {metrics['trace.overhead'][0]:.2f}x")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_s": (solve, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for p in problems:
        print(f"TRACE CHECK FAILED: {p}", file=sys.stderr)
    return {
        "correct": tally["failed"] == 0 and not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_shares(workload: str, iteration: dict) -> None:
    """Self-time shares of each layer, then with exactnum charged to its callers."""
    total = iteration["setup_s"] + iteration["solve_s"]
    own, scalar = iteration["self"], iteration["scalar"]
    charged = {l: own.get(l, 0.0) + scalar.get(l, 0.0) for l in LAYERS if l != "exactnum"}
    for title, shares in (("self time", own), ("exactnum charged to callers", charged)):
        ranked = sorted(((shares.get(l, 0.0) / total, l) for l in shares), reverse=True)
        print(
            f"{workload} layer shares, {title}, of one traced setup+pass ({total:.3f} s): "
            + ", ".join(f"{l} {s:.1%}" for s, l in ranked if l in LAYERS)
            + f", residual {iteration['residual_s'] / total:.1%}"
        )


# ---------------------------------------------------------------------------
# entry points


def run_all(args) -> dict:
    """Each workload in its own fresh interpreter, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"workload {workload} did not finish in 900 s") from exc
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def record_digests() -> None:
    cli, _ = load_symext()
    digests = {}
    for workload in WORKLOADS:
        for argv in every_job(workload):
            code, out, err = run_job(cli, argv)
            if code != 0:
                raise BenchError(f"{' '.join(argv)} exited {code}: {err.strip()}")
            digests[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
            print(f"{digests[' '.join(argv)]}  {' '.join(argv)}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record the stdout digest of every job any seed can produce")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
