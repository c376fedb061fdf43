"""Reachability ledger: which entry point first reaches each ``src/`` function.

    python tests/ledger/ledger.py [--out DIR]       # run every entry point, report
    python tests/ledger/ledger.py --report DIR      # report on an earlier run
    python tests/ledger/ledger.py --report DIR --list tier-1

Each entry point runs with ``sitecustomize.py`` (beside this file) armed,
so every process it starts records the ``repro`` functions it runs. A
function is a top-level function or a method (nested functions count in
their parent), and its lines run from its first decorator to its end. It
is credited to the first entry point, in ``ENTRY_POINTS`` order, that
reaches it. The CI commands are the ``run`` steps of the jobs in
``.github/workflows/ci.yml`` that run none of the other entry points.

A function that nothing reaches must be exempt (a Table 2 API call, an
``@abstractmethod``, ``errors.py``, ``consistency/generic.py``) or carry a
line in ``allow.txt``: ``path::qualname  reason``. Anything else, and any
allow-list line that names no function, one that is reached, or one
without a reason, exits 1.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
ALLOW = HERE / "allow.txt"
PYTEST_BENCH = ("python -m pytest benchmarks --ignore=benchmarks/perf "
                "--benchmark-disable -q -p no:cacheprovider")
#: (row label, directory name, commands run from the repo root; None for
#: the CI jobs' commands). The paper grid at 1.0 reaches nothing more.
ENTRY_POINTS = (
    ("pytest benchmarks at 0.05 and 0.25", "benchmarks",
     [f"REPRO_SCALE=0.05 {PYTEST_BENCH}", f"REPRO_SCALE=0.25 {PYTEST_BENCH}"]),
    ("benchmarks/perf", "perf",
     ["python benchmarks/perf/run.py --quick --json-out {tmp}/quick.json",
      "python -m pytest benchmarks/perf -q -p no:cacheprovider"]),
    ("CI job commands", "ci", None),
    ("examples", "examples",
     [f"python examples/{p.name}" for p in sorted((ROOT / "examples").glob("*.py"))]),
    ("tier-1", "tier-1", ["python -m pytest -x -q -p no:cacheprovider"]),
)
#: CI jobs that run the other entry points, and steps that install or
#: run the examples
OTHER_JOBS = ("tier1", "chaos", "paper-claims", "host-bench-smoke", "ledger")
OTHER_STEPS = ("pip install", "examples/")


def ci_jobs():
    """The CI steps that run none of the other entry points, per job."""
    import yaml
    jobs = yaml.safe_load((ROOT / ".github/workflows/ci.yml").read_text())["jobs"]
    return [[step["run"] for step in job["steps"] if "run" in step
             and not any(k in step["run"] for k in OTHER_STEPS)]
            for name, job in jobs.items() if name not in OTHER_JOBS]


def run(out):
    env = dict(os.environ, PYTHONPATH=f"{HERE}{os.pathsep}{SRC}")
    for label, name, commands in ENTRY_POINTS:
        started, record = time.monotonic(), out / name
        record.mkdir(parents=True, exist_ok=True)
        # each CI job runs in a fresh directory of its own, as on a runner
        for job in ci_jobs() if commands is None else [commands]:
            with tempfile.TemporaryDirectory() as tmp:
                for command in job:
                    script = (command.format(tmp=tmp) if commands else command.replace(
                        "PYTHONPATH=src", f"PYTHONPATH={env['PYTHONPATH']}"))
                    subprocess.run(["bash", "-e", "-c", script], check=True,
                                   cwd=ROOT if commands else tmp,
                                   env=dict(env, REPRO_LEDGER_DIR=str(record)))
        print(f"[ledger] {label}: {time.monotonic() - started:.0f} s", flush=True)


def units():
    """``{path: [(start, end, qualname, abstract)]}`` for every function."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rows = []

        def visit(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    abstract = any(ast.unparse(d).endswith("abstractmethod")
                                   for d in node.decorator_list)
                    rows.append((start, node.end_lineno, prefix + node.name, abstract))
                elif isinstance(node, (ast.If, ast.Try, ast.With)):
                    for part in ("body", "orelse", "handlers", "finalbody"):
                        visit(getattr(node, part, []), prefix)
                elif isinstance(node, ast.ExceptHandler):
                    visit(node.body, prefix)

        visit(ast.parse(path.read_text()).body, "")
        found[str(path.relative_to(SRC))] = rows
    return found


def unit_at(rows, line):
    return next((row for row in rows if row[0] <= line <= row[1]), None)


def table2_calls(table):
    """``{(path, qualname)}`` of every Table 2 API method."""
    sys.path.insert(0, str(SRC))
    from repro.models import MODEL_REGISTRY, load_model
    out = set()
    for name in MODEL_REGISTRY:
        cls = load_model(name)
        for call in cls.API_CALLS:
            code = inspect.unwrap(getattr(cls, call)).__code__
            path = str(Path(code.co_filename).resolve().relative_to(SRC))
            out.add((path, unit_at(table[path], code.co_firstlineno)[2]))
    return out


#: whole files exempt: error constructors, and item 7's oracle's base
EXEMPT_FILES = ("repro/errors.py", "repro/consistency/generic.py")


def exempt(path, qualname, abstract, table2):
    return abstract or (path, qualname) in table2 or path in EXEMPT_FILES


#: the rows of "reached by nothing", after the entry points' rows
NOTHING = (("exempt", "nothing: exempt"), ("allow-listed", "nothing: allow-listed"),
           ("flagged", "nothing: neither (fails)"))


def report(out, show=None):
    """Print the table (and the functions of row ``show``); 1 on a problem."""
    table = units()
    first = {}
    for _, name, _ in ENTRY_POINTS:
        for log in sorted((out / name).glob("*.tsv")):
            for line in log.read_text().splitlines():
                file, lineno, _ = line.split("\t")
                path = file.rpartition(f"{os.sep}src{os.sep}")[2]
                row = unit_at(table.get(path, ()), int(lineno))
                if row is not None:
                    first.setdefault((path, row[2]), name)
    allow = dict(line.partition(" ")[::2] for line in ALLOW.read_text().splitlines()
                 if line.strip() and not line.startswith("#"))
    table2 = table2_calls(table)
    counts, problems, known = defaultdict(lambda: [0, 0]), [], set()
    for path, rows in table.items():
        for start, end, qualname, abstract in rows:
            key, size = f"{path}::{qualname}", end - start + 1
            known.add(key)
            name = first.get((path, qualname))
            if name is None:
                name = ("exempt" if exempt(path, qualname, abstract, table2)
                        else "allow-listed" if key in allow else "flagged")
                if name == "flagged":
                    problems.append(f"reached by nothing: {key} ({size} lines)")
            elif key in allow:
                problems.append(f"allow-listed but reached by {name}: {key}")
            counts[name][0] += 1
            counts[name][1] += size
            if show == name:
                print(f"  {key} {size}")
    problems += [f"allow-listed, but no such function: {key}"
                 for key in allow if key not in known]
    problems += [f"allow-listed without a reason: {key}"
                 for key, why in allow.items() if not why.strip()]
    print("| first reached by | functions | lines |\n|---|---|---|")
    for name, label in [(e[1], e[0]) for e in ENTRY_POINTS] + list(NOTHING):
        print(f"| {label} | {counts[name][0]} | {counts[name][1]} |")
    print("\n".join(problems) or "no function is reached by nothing unexplained")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="record here (default: a temp dir)")
    parser.add_argument("--report", type=Path, metavar="DIR",
                        help="report on an earlier run's records, run nothing")
    parser.add_argument("--list", metavar="ROW", help="also list one row's functions: "
                        + ", ".join([e[1] for e in ENTRY_POINTS] + [n[0] for n in NOTHING]))
    args = parser.parse_args(argv)
    if args.report:
        return report(args.report, args.list)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        run(out)
        return report(out, args.list)


if __name__ == "__main__":
    sys.exit(main())
