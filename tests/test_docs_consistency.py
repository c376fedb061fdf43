"""Documentation honesty checks: the markdown deliverables must reference
real files, and recorded numbers that are cheap to recompute must match the
code (stale docs are bugs here, not cosmetics)."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_every_bench_target_exists(self):
        text = read("DESIGN.md")
        for match in re.finditer(r"`benchmarks/(test_[a-z0-9_]+\.py)`", text):
            assert (REPO / "benchmarks" / match.group(1)).exists(), match.group(0)

    def test_mismatch_note_absent(self):
        """DESIGN.md must not carry the title-mismatch warning — the
        provided text matched the claimed paper."""
        assert "mismatch" not in read("DESIGN.md").split("\n\n")[0].lower()


#: the prose deliverables whose citations must name something real
CITING = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "CONTRIBUTING.md",
          *sorted(str(p.relative_to(REPO)) for p in REPO.glob("docs/*.md")))
_SPAN = re.compile(r"`([^`\n]+)`")
_REF = re.compile(r"(?<![\w./-])((?:src|tests)/[\w./*-]*(?:::[\w.\[\]-]+)*"
                  r"|repro(?:\.[\w*]+)+(?:/\d+)?)")


def cited(text):
    """Every ``src/`` or ``tests/`` path, ``tests/…::Name`` and ``repro.…``
    dotted name inside a backticked span of ``text``."""
    for span in _SPAN.finditer(text):
        for ref in _REF.finditer(span.group(1)):
            yield ref.group(1)


def _defines(path, names):
    scope = ast.parse(path.read_text(encoding="utf-8")).body
    for name in names:
        hits = [node for node in scope if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name.split("[")[0]]      # a test id's params
        if not hits:
            return False
        scope = hits[0].body
    return True


def unresolved(ref):
    """Why ``ref`` names nothing, or None when it resolves. ``name/N`` is
    a schema string (``repro.fabric.cache/3``), not a dotted name."""
    if ref.startswith(("src/", "tests/")):
        path, *names = ref.split("::")
        hits = sorted(REPO.glob(path)) if "*" in path else [
            REPO / path] if (REPO / path).exists() else []
        if not hits:
            return "no such path"
        if names and not _defines(hits[0], names):
            return "no such name"
        return None
    if re.search(r"/\d+$", ref):
        return None
    parts = ref.split(".")
    while parts[-1] == "*":
        parts.pop()
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return f"no attribute {attr}"
            obj = getattr(obj, attr)
        return None
    return "no module"


class TestEveryCitationResolves:
    """A deleted function, test or module cannot stay documented."""

    @pytest.mark.parametrize("doc", CITING)
    def test_every_cited_name_resolves(self, doc):
        refs = list(cited(read(doc)))
        assert [f"{ref}: {unresolved(ref)}" for ref in refs
                if unresolved(ref)] == []

    @pytest.mark.parametrize("text,expected", [
        ("the server drains `SimQueue.try_get` via "
         "`tests/test_sim_resources.py::TestSimQueue::test_try_get`",
         ["tests/test_sim_resources.py::TestSimQueue::test_try_get"]),
        ("see `repro.msg.active_messages.SimQueue` and `src/repro/msg/inbox.py`",
         ["repro.msg.active_messages.SimQueue", "src/repro/msg/inbox.py"]),
        ("`repro.msgs` and `python -m repro.bench.diffchek --check`",
         ["repro.msgs", "repro.bench.diffchek"]),
        # real names, globs, line numbers and schema strings resolve
        ("`tests/test_messaging.py::TestRoundTripPinned::test_round_trip[sci]`"
         " `src/repro/msg/active_messages.py:279` `src/repro/dsm/*.py`"
         " `repro.fabric.cachf/3` `repro.obs.*` `repro.msg.coalesce.Channel`",
         []),
    ])
    def test_the_check_fails_on_a_seeded_stale_name(self, text, expected):
        assert [ref for ref in cited(text) if unresolved(ref)] == expected


class TestExperimentsDoc:
    def test_table2_api_counts_match_code(self):
        """The recorded #calls column must equal the live manifests."""
        from repro.models import MODEL_REGISTRY, load_model

        text = read("EXPERIMENTS.md")
        # Rows look like: | SPMD model | 66 | 23 | ...
        recorded = {}
        for line in text.splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) >= 3 and cells[0] in MODEL_REGISTRY:
                recorded[cells[0]] = int(cells[2])
        assert len(recorded) >= 8
        for name, calls in recorded.items():
            assert load_model(name).api_call_count() == calls, name

    def test_referenced_benches_exist(self):
        text = read("EXPERIMENTS.md")
        for match in re.finditer(r"`(?:benchmarks/)?(test_[a-z0-9_]+\.py)`", text):
            assert (REPO / "benchmarks" / match.group(1)).exists(), match.group(0)

    def test_band_claims_match_fig2_bench(self):
        """EXPERIMENTS and the claims table must agree on the band."""
        bench = read("src/repro/bench/runners.py")
        assert "6.5" in bench and "6.5" in read("EXPERIMENTS.md")


class TestReadme:
    def test_example_files_exist(self):
        text = read("README.md")
        for match in re.finditer(r"`([a-z_]+\.py)`", text):
            name = match.group(1)
            if (REPO / "examples" / name).exists():
                continue
            # Non-example code files mentioned by bare name must exist too.
            hits = list((REPO / "src").rglob(name))
            assert hits, f"README references missing file {name}"

    def test_docs_files_exist(self):
        for name in ("docs/architecture.md", "docs/protocol.md",
                     "docs/porting.md", "CONTRIBUTING.md", "EXPERIMENTS.md",
                     "DESIGN.md"):
            assert (REPO / name).exists(), name

    def test_cli_commands_in_readme_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        parser.parse_args(["platforms"])
        parser.parse_args(["run", "--preset", "hybrid-4", "--app", "lu",
                           "--param", "n=256", "--profile"])
        parser.parse_args(["experiments", "--scale", "1.0"])


class TestBenchmarkingDoc:
    def test_field_table_matches_the_declaration(self):
        """docs/benchmarking.md lists every record field with its class,
        exactly as ``repro.bench.telemetry.FIELDS`` declares it."""
        from repro.bench.telemetry import FIELDS

        documented = {}
        for line in read("docs/benchmarking.md").splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) == 4 and cells[1] in ("semantic", "host"):
                documented[cells[0].strip("`")] = cells[1]
        assert documented == {name: f.kind for name, f in FIELDS.items()}


class TestProtocolDocMatchesCode:
    def test_adaptive_constants(self):
        from repro.dsm.jiajia import JiaJiaSystem

        text = read("docs/protocol.md")
        assert f"(`{'ASSUME_STREAK'}`" in text or "ASSUME_STREAK" in text
        assert f"({JiaJiaSystem.ASSUME_STREAK})" in text
        assert f"({JiaJiaSystem.ASSUME_REVALIDATE})" in text
