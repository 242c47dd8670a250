import base64
import email.parser
import hashlib
import tarfile
import zipfile

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from conftest import DATA

ROOT = DATA.parents[2]


@pytest.fixture
def backend(monkeypatch):
    """The in-tree build backend, with the checkout as working directory."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "build_backend"))
    import overhear_build
    return overhear_build


def test_wheel_holds_package_data_and_console_script(backend, tmp_path):
    wheel = zipfile.ZipFile(tmp_path / backend.build_wheel(str(tmp_path)))
    names = set(wheel.namelist())
    sources = {path.relative_to(ROOT / "src").as_posix()
               for path in (ROOT / "src" / "overhear").rglob("*")
               if path.is_file() and "__pycache__" not in path.parts}
    assert {"overhear/cli.py", "overhear/data/evac_team.json"} <= sources
    info = "overhear-0.1.0.dist-info"
    assert names == sources | {f"{info}/{name}" for name in
                               ("METADATA", "WHEEL", "entry_points.txt", "RECORD")}
    entry_points = wheel.read(f"{info}/entry_points.txt").decode()
    assert entry_points == "[console_scripts]\noverhear = overhear.cli:main\n"
    # METADATA requires exactly the [project] dependencies, in order (none today)
    metadata = email.parser.Parser().parsestr(wheel.read(f"{info}/METADATA").decode())
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    assert metadata.get_all("Requires-Dist", []) == project.get("dependencies", [])
    # Every file but RECORD itself is listed with its size and sha256.
    for line in wheel.read(f"{info}/RECORD").decode().splitlines():
        name, digest, size = line.split(",")
        if name == f"{info}/RECORD":
            continue
        data = wheel.read(name)
        expected = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
        assert digest == f"sha256={expected.decode()}"
        assert int(size) == len(data)


@pytest.mark.parametrize("dependencies", [None, [], ["numpy", "tomli>=1.1"]])
def test_metadata_lists_the_dependencies_it_is_given(backend, dependencies):
    project = {"name": "overhear", "version": "0.1.0"}
    if dependencies is not None:
        project["dependencies"] = dependencies
    metadata = email.parser.Parser().parsestr(backend._metadata(project))
    assert not metadata.defects
    assert (metadata["Metadata-Version"], metadata["Name"], metadata["Version"]) == (
        "2.1", "overhear", "0.1.0")
    assert metadata.get_all("Requires-Dist", []) == (dependencies or [])


def test_sdist_rebuilds_the_same_wheel(backend, tmp_path, monkeypatch):
    with tarfile.open(tmp_path / backend.build_sdist(str(tmp_path))) as sdist:
        assert "overhear-0.1.0/build_backend/overhear_build.py" in sdist.getnames()
        sdist.extractall(tmp_path / "unpacked")
    wheel = zipfile.ZipFile(tmp_path / backend.build_wheel(str(tmp_path)))
    monkeypatch.chdir(tmp_path / "unpacked" / "overhear-0.1.0")
    (tmp_path / "again").mkdir()
    again = zipfile.ZipFile(tmp_path / "again" / backend.build_wheel(str(tmp_path / "again")))
    assert again.namelist() == wheel.namelist()
    for name in wheel.namelist():
        assert again.read(name) == wheel.read(name), name
