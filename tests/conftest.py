"""Shared hypothesis configuration and small builders for the tests."""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

import renyibounds
from renyibounds import FiniteMeasure

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def measure_from_weights(weights) -> FiniteMeasure:
    w = np.asarray(weights, dtype=float)
    labels = tuple(str(i) for i in range(w.size))
    return FiniteMeasure.from_probs(labels, w / w.sum())


@st.composite
def finite_measures(draw, min_dim: int = 2, max_dim: int = 6, allow_zero: bool = False):
    dim = draw(st.integers(min_dim, max_dim))
    low = 0 if allow_zero else 1
    weights = draw(
        st.lists(st.integers(low, 1000), min_size=dim, max_size=dim).filter(
            lambda ws: sum(ws) > 0
        )
    )
    return measure_from_weights(weights)


@st.composite
def payoff_values(draw, dim: int):
    vals = draw(
        st.lists(
            st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
            min_size=dim,
            max_size=dim,
        )
    )
    return np.asarray(vals)


def workload_peaks(arrivals: np.ndarray, C: float) -> np.ndarray:
    """Peak workload of each row of arrivals by the max formula.

    With S_k the sum of the first k arrivals, the reflected recursion's
    peak is max over j <= k of S_k - S_j - C (k - j), with no recursion.
    """
    s = np.concatenate([np.zeros((len(arrivals), 1)), np.cumsum(arrivals, axis=1)], axis=1)
    k = np.arange(s.shape[1])
    rise = s[:, :, None] - s[:, None, :] - C * (k[:, None] - k[None, :])
    return np.max(np.where(k[None, :] <= k[:, None], rise, -np.inf), axis=(1, 2))


def lane_uniforms(law, gen: np.random.Generator, take: int, n: int) -> np.ndarray:
    """The uniforms behind a queue chunk's take rows of n arrivals, from gen.

    Written from the sampler's definition, with no row blocks. Each 64-bit
    word w of gen gives four 16-bit lanes, lane j being (w >> 16 j) & 0xffff,
    and the lanes fill the rows in row-major order; the lanes past the
    last row are dropped. A lane whose top 12 bits name a marked bucket of
    law's guide takes the next word r of the refinement stream (gen's
    first state jumped ahead), in row-major order of those lanes, and
    becomes u = (lane 2^37 + (r >> 27)) 2^-53. Any other lane becomes
    u = lane 2^-16, the start of its interval, where every u of the
    bucket has the same arrival count.
    """
    refine = np.random.Generator(gen.bit_generator.jumped())
    words = gen.integers(0, 2**64, size=-(-take * n // 4), dtype=np.uint64)
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    lanes = ((words[:, None] >> shifts) & np.uint64(0xffff)).reshape(-1)[:take * n]
    lanes = lanes.reshape(take, n)
    marked = law._guide[lanes >> np.uint64(4)] < 0
    low = np.zeros(lanes.shape, dtype=np.uint64)
    low[marked] = refine.integers(0, 2**64, size=int(marked.sum()), dtype=np.uint64) >> 27
    return ((lanes << np.uint64(37)) | low) * 2.0**-53


def _assert_script_runs_cli_entry() -> None:
    """pyproject.toml installs `renyibounds` as cli.entry, which __main__ calls."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        return
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["renyibounds"] == "renyibounds.cli:entry"


@pytest.fixture
def console_script():
    """Command prefix and environment that run the `renyibounds` script.

    Uses the installed console script when it is on PATH, and otherwise
    `python -m renyibounds`, whose __main__ calls the same cli.entry.
    PYTHONPATH leads with the directory of the imported package, so the
    subprocess runs the code under test wherever pytest was started.
    """
    script = shutil.which("renyibounds")
    if script is None:
        _assert_script_runs_cli_entry()
        command = [sys.executable, "-m", "renyibounds"]
    else:
        command = [script]
    env = dict(os.environ)
    package_root = str(Path(renyibounds.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH"))))
    return command, env
