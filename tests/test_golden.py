"""CLI output pinned across commits.

The files under ``tests/data/golden/`` hold the output of ``recognize`` and
``evaluate`` in both layouts, and of ``bench``, on ``evac_team.json`` (seed 7,
120 ticks).  A refactor that should not change any number must leave every
one of them byte-identical.  After a deliberate output change, rewrite them
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import pathlib
import tempfile

from overhear.cli import run_command

ROOT = pathlib.Path(__file__).resolve().parent
GOLDEN = ROOT / "data" / "golden"
PROGRAM = str(ROOT.parent / "src" / "overhear" / "data" / "evac_team.json")


def golden_outputs(work: pathlib.Path) -> dict[str, bytes]:
    """Run the pinned commands in ``work``; map each golden file name to its output."""
    run = work / "run"
    team = ["--program", PROGRAM, "--team-mode"]
    log, trace, comm = str(run / "log.txt"), str(run / "trace.txt"), str(work / "comm.txt")
    commands = {
        "simulate": ["simulate", *team, "--seed", "7", "--ticks", "120", "--out", str(run)],
        "comm.txt": ["learn", "--log", log],
        "recognize-yoyo.txt": ["recognize", *team, "--log", log, "--mode", "yoyo",
                               "--ticks", "120"],
        "recognize-array.txt": ["recognize", *team, "--log", log, "--mode", "array",
                                "--ticks", "120"],
        "evaluate-yoyo-comm.txt": ["evaluate", *team, "--log", log, "--truth", trace,
                                   "--mode", "yoyo", "--comm", comm],
        "evaluate-array-no-coherent.txt": ["evaluate", *team, "--log", log, "--truth", trace,
                                           "--mode", "array", "--no-coherent"],
        "bench.txt": ["bench", "--program", PROGRAM, "--agents", "4:6", "--ticks", "120"],
    }
    for name, argv in commands.items():
        if name != "simulate":
            argv = [*argv, "--out", str(work / name)]
        assert run_command(argv) == 0, argv
    return {name: (work / name).read_bytes() for name in commands
            if name.endswith(".txt") and name != "comm.txt"}


def test_cli_output_matches_golden(tmp_path):
    outputs = golden_outputs(tmp_path)
    assert sorted(outputs) == sorted(f.name for f in GOLDEN.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in golden_outputs(pathlib.Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
