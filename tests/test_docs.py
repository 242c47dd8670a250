"""The short docs stay true: README's library example runs, and every
``module.name`` that README or a package docstring cites names a real
attribute of the package."""

import ast
import importlib
import pathlib
import re

from conftest import DATA

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "overhear"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
CITED = re.compile(rf"(?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+")


def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def readme_citations() -> list[str]:
    """Every `module.name` code span of README, outside fenced blocks."""
    prose = re.sub(r"```.*?```", "", readme(), flags=re.S)
    return [span for span in re.findall(r"`([^`\n]+)`", prose) if CITED.fullmatch(span)]


def docstring_citations() -> list[tuple[str, str]]:
    """Every ``module.name`` of a package docstring, with its file."""
    cited = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                cited += [(path.name, span) for span in re.findall(r"``([^`]+)``", doc)
                          if CITED.fullmatch(span)]
    return cited


def resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"overhear.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_library_example_runs(monkeypatch, capsys):
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme(), re.S).group(1)
    monkeypatch.chdir(DATA)  # the example loads evac_team.json by its bare name
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["0", "100", "200"]
    assert int(lines[3]) > 0  # the node visits
    assert 0.0 <= float(lines[4]) <= 1.0 and len(lines) == 5


def test_readme_citations_resolve():
    cited = readme_citations()
    assert len(cited) > 10  # the pattern still finds citations
    assert [name for name in cited if not resolves(name)] == []


def test_docstring_citations_resolve():
    cited = docstring_citations()
    assert len(cited) > 10  # the pattern still finds citations
    assert [(file, name) for file, name in cited if not resolves(name)] == []

