"""Shared hypothesis configuration and small builders for the tests."""

from __future__ import annotations

import functools
import math
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


def _philox_words(key, counter: int, size: int) -> np.ndarray:
    """size 64-bit words of a Philox stream whose counter starts at counter."""
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return gen.integers(0, 2**64, size=size, dtype=np.uint64)


def lane_uniforms(law, gen: np.random.Generator, take: int, n: int) -> np.ndarray:
    """The uniforms behind a queue chunk's take rows of n arrivals, from gen.

    Written from the sampler's definition, one fresh Philox stream a step.
    gen must be a chunk's generator in its first state, with counter c and
    key K. Step k reads ceil(take / 4) words from counter c + 4096 k of K,
    and row r's lane is lane r % 4 of word r // 4, lane j of a word w
    being (w >> 16 j) & 0xffff. A lane whose top 12 bits name a marked
    bucket of law's guide takes a word r of the refinement stream (gen's
    first state jumped ahead, at counter c'): step k's marked lanes, in
    row order, read the words from counter c' + 16384 k. Such a lane
    becomes u = (lane 2^37 + (r >> 27)) 2^-53. Any other lane becomes
    u = lane 2^-16, the start of its interval, where every u of the
    bucket has the same arrival count.
    """
    def counter(bits) -> int:
        return sum(int(c) << 64 * i for i, c in enumerate(bits.state["state"]["counter"]))

    key = gen.bit_generator.state["state"]["key"]
    first, jumped = counter(gen.bit_generator), counter(gen.bit_generator.jumped())
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    u = np.empty((take, n))
    for k in range(n):
        words = _philox_words(key, first + 4096 * k, -(-take // 4))
        lanes = ((words[:, None] >> shifts) & np.uint64(0xffff)).reshape(-1)[:take]
        marked = law._guide[lanes >> np.uint64(4)] < 0
        low = np.zeros(take, dtype=np.uint64)
        low[marked] = _philox_words(key, jumped + 16384 * k, int(marked.sum())) >> 27
        u[:, k] = ((lanes << np.uint64(37)) | low) * 2.0**-53
    return u


@functools.lru_cache(maxsize=8)
def _window_normals(key: tuple, take: int, n_steps: int) -> np.ndarray:
    columns = [np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64),
                                                    counter=k << 64)).standard_normal(take)
               for k in range(n_steps)]
    out = np.stack(columns, axis=1)
    out.flags.writeable = False
    return out


def step_normals(gen: np.random.Generator, take: int, n_steps: int) -> np.ndarray:
    """The (take, n_steps) normals of a grid chunk, from the layout's definition.

    Written without the kernels' code: column k is take normals of a fresh
    Philox with gen's key at counter k << 64, so row r holds path r's
    normals whatever the take. Read-only, since equal arguments share it.
    """
    key = tuple(int(w) for w in gen.bit_generator.state["state"]["key"])
    return _window_normals(key, take, n_steps)


def _along_steps(values: np.ndarray) -> np.ndarray:
    """Running sums of each row, one step at a time from 0.0 (np.sum pairs them up)."""
    return np.cumsum(np.concatenate([np.zeros((len(values), 1)), values], axis=1), axis=1)


def reference_crossing_kernel(level, mu, grid):
    """Skeleton crossing indicators in matrix form: the running maximum of X_k."""
    dt = grid.dt

    def kernel(gen, take):
        steps = step_normals(gen, take, grid.n_steps) * math.sqrt(dt) + mu * dt
        return np.max(_along_steps(steps)[:, 1:], axis=1) >= level

    return kernel


def reference_girsanov_kernel(drift, grid):
    """Euler log likelihood ratios in matrix form: sum_k m_k (dB_k - m_k dt / 2).

    drift sees the whole (take, n_steps) matrix of pre-step values, which
    an elementwise drift must map as it maps each column.
    """
    dt = grid.dt

    def kernel(gen, take):
        db = step_normals(gen, take, grid.n_steps) * math.sqrt(dt)
        pre = _along_steps(db)[:, :-1]
        m = np.asarray(drift(pre), dtype=float)
        with np.errstate(over="ignore"):
            return _along_steps(m * (db - m * (0.5 * dt)))[:, -1]

    return kernel


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
