"""Every ``results/`` path the test suites read must be tracked by git.

A file that exists in a working tree but is excluded by ``.gitignore``
passes locally and fails on every clean checkout.  This guard reads the
suites' sources, collects each ``results/`` path (or glob pattern) they
build — string literals, ``os.path.join(..., "results", ...)``,
``Path / "results" / ...`` chains, names bound to those, and
``.glob(...)`` on such a name — and asks git whether it matches a
tracked file.
"""

import ast
import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SUITES = ("tests", "benchmarks", "perfbench")
#: ``results/`` paths the suites only write to (run directories).
OUTPUTS = {"results/runs"}
_LITERAL = re.compile(r"\bresults/[\w.\-/]*\w")


def _constant(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _Reads(ast.NodeVisitor):
    """Collects the results/ paths one module builds."""

    def __init__(self) -> None:
        self.paths = set()
        self._names = {}

    def resolve(self, node):
        """The results/ path *node* evaluates to, or None."""
        if isinstance(node, ast.Name):
            return self._names.get(node.id)
        text = _constant(node)
        if text is not None:
            return text.rstrip("/") if text.startswith("results") else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return self._join([node.left, node.right])
        if isinstance(node, ast.Call) and getattr(
                node.func, "attr", None) == "join":
            return self._join(node.args)
        return None

    def _join(self, parts):
        path = None
        for part in parts:
            text = _constant(part)
            if path is not None:
                if text is None:
                    return path
                path = f"{path}/{text}"
            elif text == "results":
                path = text
            else:
                path = self.resolve(part)
        return path

    def visit_Assign(self, node):
        path = self.resolve(node.value)
        if path is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._names[target.id] = path
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("glob", "rglob") and node.args):
            base = self.resolve(func.value)
            pattern = _constant(node.args[0])
            if base is not None and pattern is not None:
                self.paths.add(f"{base}/{pattern}")
        self.generic_visit(node)

    def generic_visit(self, node):
        path = (self.resolve(node)
                if isinstance(node, (ast.BinOp, ast.Call)) else None)
        if path is not None:
            self.paths.add(path)
        text = _constant(node)
        if text is not None:
            self.paths.update(_LITERAL.findall(text))
        super().generic_visit(node)


def reads(source: str):
    """The results/ paths and patterns *source* builds."""
    visitor = _Reads()
    visitor.visit(ast.parse(source))
    return visitor.paths


def _suite_reads():
    found = {}
    for suite in SUITES:
        for module in sorted((REPO / suite).rglob("*.py")):
            if module == Path(__file__).resolve():
                continue  # this guard's own samples
            for path in reads(module.read_text()):
                found.setdefault(path, module.relative_to(REPO))
    return found


def _tracked(pathspec: str) -> bool:
    out = subprocess.run(["git", "ls-files", "--", pathspec], cwd=REPO,
                         capture_output=True, text=True, check=True)
    return bool(out.stdout.strip())


@pytest.fixture(scope="module")
def git_checkout():
    try:
        inside = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                                cwd=REPO, capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not installed")
    if inside.returncode != 0 or Path(inside.stdout.strip()) != REPO:
        pytest.skip("not a git checkout of the repository")


def test_scanner_finds_the_known_reads():
    found = _suite_reads()
    assert "results/golden/figure2_quick.json" in found
    assert "results/replacement_ablation.json" in found
    assert "results/golden/explain/*.explain.json" in found


def test_scanner_sees_a_glob_on_a_bound_path():
    source = ('DIR = ROOT / "results" / "golden" / "explain"\n'
              'traces = sorted(DIR.glob("*.events.jsonl"))\n'
              'GOLDEN = os.path.join(HERE, os.pardir, "results", "g.json")\n')
    assert reads(source) >= {"results/golden/explain",
                             "results/golden/explain/*.events.jsonl",
                             "results/g.json"}


def test_every_read_results_path_is_tracked(git_checkout):
    untracked = {path: str(module)
                 for path, module in _suite_reads().items()
                 if path not in OUTPUTS and not _tracked(path)}
    assert not untracked, (
        f"results/ paths read by tests but not tracked by git (a "
        f".gitignore rule may be excluding them): {untracked}")
