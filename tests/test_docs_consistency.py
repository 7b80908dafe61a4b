"""Documentation/product consistency checks.

Keeps README/DESIGN/EXPERIMENTS and docs/ honest: every referenced
artifact exists, every example is listed and runnable-looking, every public
module carries a docstring, every benchmark asserts something, and
every row of the paper-claims table cites the paper, checks something
and appears in the committed REPORT.md.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.figures import FIGURES

ROOT = Path(__file__).resolve().parents[1]


def _py_files(sub: str) -> list[Path]:
    return sorted((ROOT / sub).rglob("*.py"))


DOCS_DIR = [str(p.relative_to(ROOT)) for p in sorted((ROOT / "docs").glob("*.md"))]
#: the prose docs: the top-level three and everything under docs/
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", *DOCS_DIR]


def _missing_bench_refs(doc: str) -> list[str]:
    """Bench files and ``benchmarks/`` paths ``doc`` names that do not exist."""
    text = (ROOT / doc).read_text()
    refs = [f"benchmarks/{name}" for name in re.findall(r"\b(bench_\w+\.py)", text)]
    refs += re.findall(r"\bbenchmarks/[\w./*]*\w", text)
    return [ref for ref in refs if not list(ROOT.glob(ref))]


class TestDocsReferenceRealFiles:
    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)`", readme):
            where = "benchmarks" if name.startswith("bench_") else "examples"
            assert (ROOT / where / name).exists(), name

    def test_design_bench_targets_exist(self):
        assert _missing_bench_refs("DESIGN.md") == []

    def test_experiments_bench_targets_exist(self):
        assert _missing_bench_refs("EXPERIMENTS.md") == []

    @pytest.mark.parametrize("doc", ["README.md", *DOCS_DIR])
    def test_docs_bench_targets_exist(self, doc):
        assert _missing_bench_refs(doc) == []

    def test_docs_name_real_figure_rows(self):
        rows = {fig.name for fig in FIGURES}
        for doc in DOCS:
            text = (ROOT / doc).read_text()
            for name in re.findall(r"row `(\w+)`", text):
                assert name in rows, (doc, name)

    def test_algorithm_doc_module_refs_exist(self):
        text = (ROOT / "docs" / "ALGORITHM.md").read_text()
        for ref in re.findall(r"`(\w+(?:/\w+)+\.py)`", text):
            assert (ROOT / "src" / "repro" / ref).exists() or (
                ROOT / "tests" / ref.split("/")[-1]
            ).exists(), ref

    def test_algorithm_doc_test_refs_exist(self):
        text = (ROOT / "docs" / "ALGORITHM.md").read_text()
        for name in re.findall(r"`(test_\w+\.py)", text):
            assert (ROOT / "tests" / name).exists(), name

    def test_required_top_level_docs(self):
        for f in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
            assert (ROOT / f).exists(), f


class TestSourceHygiene:
    def test_every_module_has_docstring(self):
        missing = []
        for path in _py_files("src"):
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                missing.append(str(path.relative_to(ROOT)))
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_class_documented(self):
        missing = []
        for path in _py_files("src"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                    if ast.get_docstring(node) is None:
                        missing.append(f"{path.name}:{node.name}")
        assert not missing, f"classes without docstrings: {missing}"

    def test_every_public_function_documented(self):
        missing = []
        for path in _py_files("src"):
            tree = ast.parse(path.read_text())
            for node in tree.body:  # top-level functions only
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    if ast.get_docstring(node) is None:
                        missing.append(f"{path.name}:{node.name}")
        assert not missing, f"functions without docstrings: {missing}"

    def test_no_print_in_library_code(self):
        """The library communicates through return values; only the CLI
        and __main__ print."""
        allowed = {"cli.py", "__main__.py"}
        offenders = []
        for path in _py_files("src"):
            if path.name in allowed:
                continue
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, f"print() in library code: {offenders}"


class TestFigureTable:
    def test_every_row_cites_the_paper_and_checks_something(self):
        for fig in FIGURES:
            assert re.match(r"(Fig|Figs|Sec|Secs|Alg)\. ", fig.ref), fig.name
            assert fig.checks, fig.name
        assert len({fig.name for fig in FIGURES}) == len(FIGURES)

    def test_every_row_in_committed_report(self):
        report = (ROOT / "REPORT.md").read_text()
        missing = [fig.name for fig in FIGURES if f"## {fig.name}\n" not in report]
        assert not missing, f"rerun `python -m repro figures --out REPORT.md`: {missing}"


class TestBenchmarkShape:
    def test_every_bench_has_docstring_and_assert(self):
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            text = path.read_text()
            tree = ast.parse(text)
            assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
            assert "assert" in text, f"{path.name} asserts nothing"

    def test_every_bench_uses_benchmark_fixture(self):
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert "benchmark" in path.read_text(), path.name

    def test_examples_have_main_guard(self):
        for path in _py_files("examples"):
            text = path.read_text()
            assert '__name__ == "__main__"' in text, path.name
            assert ast.get_docstring(ast.parse(text)), f"{path.name} lacks a docstring"
