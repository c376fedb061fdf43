"""Documentation honesty checks: the markdown deliverables must reference
real files, and recorded numbers that are cheap to recompute must match the
code (stale docs are bugs here, not cosmetics)."""

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

    def test_every_module_reference_resolves(self):
        text = read("DESIGN.md")
        for match in re.finditer(r"`repro\.([a-z_.]+)`", text):
            dotted = match.group(1).rstrip(".")
            if dotted.endswith("*"):
                continue
            parts = dotted.replace(".*", "").split(".")
            path = REPO / "src" / "repro" / Path(*parts)
            assert (path.with_suffix(".py").exists() or path.is_dir()), dotted

    def test_mismatch_note_absent(self):
        """DESIGN.md must not carry the title-mismatch warning — the
        provided text matched the claimed paper."""
        assert "mismatch" not in read("DESIGN.md").split("\n\n")[0].lower()


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
