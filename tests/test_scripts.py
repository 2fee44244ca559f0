"""The scripts under scripts/ run end to end and match the CLI they wrap."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(argv, env):
    return subprocess.run(argv, capture_output=True, env=env, timeout=300)


def test_make_figure_data_matches_brownian_figures(console_script, tmp_path):
    command, env = console_script
    proc = _run([sys.executable, str(SCRIPTS / "make_figure_data.py"),
                 "--out-dir", str(tmp_path), "--points", "20"], env)
    assert proc.returncode == 0, proc.stderr
    for scale in ("probability", "log"):
        target = tmp_path / f"bounds_{scale}.csv"
        assert f"wrote {target}".encode() in proc.stdout
        cli = _run(command + ["brownian-figures", "--K", "4", "--mu", "0.1",
                              "--points", "20", "--scale", scale, "--format", "csv"], env)
        assert cli.returncode == 0, cli.stderr
        assert target.read_bytes() == cli.stdout


def test_queue_study_matches_queue_command(console_script):
    command, env = console_script
    env.pop("RENYI_SEED", None)
    proc = _run([sys.executable, str(SCRIPTS / "queue_study.py"), "--reps", "2000"], env)
    cli = _run(command + ["queue", "--C", "2", "--b", "0.1", "--n", "50", "--alpha", "3",
                          "--theta-rate", "1.1", "--reps", "2000", "--format", "json"], env)
    assert cli.returncode in (0, 1), cli.stderr
    assert proc.returncode == cli.returncode
    assert proc.stdout == cli.stdout
    assert proc.stdout.startswith(b"{")
