"""The calls the benchmark's per-layer split makes into ``vervaat``.

``perfbench/layers.py`` drives the library through public names (the
decomposed engine steps, the oracle and runtime functions, ``cli.main``), and
``perfbench/run.py`` reads the ``-X importtime`` split of ``vervaat.cli``.
When one of those names disappears or changes its signature, the traced
benchmark run reports null metrics; these tests make the same calls, so the
suite fails first.  Five commands are also checked against the sha256 digests
in ``perfbench/digests.json``, which the tests only read.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from click.testing import CliRunner

from vervaat import make_params, sample_many
from vervaat.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import layers
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return layers


@pytest.fixture(scope="module")
def api(layers):
    api = layers.Api()
    assert api.decomposed, "the engine lost a name the per-layer split times"
    return api


@pytest.mark.parametrize("beta, n", [(1.0, 50), (3.0, 2)])
def test_replica_sample_matches_sample_many(layers, api, beta, n):
    job = layers.Job("sample", beta, n, 0)
    tracer = layers.Tracer()
    counts = layers.Counts()
    rows, covered = layers.replica(api, job, tracer, 1, counts)
    assert covered == n and counts.draws == n and counts.w2 is not None
    values, steps, d0s = sample_many(make_params(beta), n, 0)
    assert rows == {i: (values[i], steps[i], d0s[i]) for i in range(n)}
    assert {"streams", "updates", "engine"} <= set(tracer.layer_self())


@pytest.mark.parametrize("kind", ["trace", "analyze"])
def test_replica_trace_and_analyze(layers, api, kind):
    tracer = layers.Tracer()
    rows, _ = layers.replica(api, layers.Job(kind, 1.0, 1, 0), tracer)
    assert len(rows) == (kind == "trace") and tracer.spans


def test_replica_validate(layers, api):
    n = 10_000
    values, _, _ = sample_many(make_params(1.0), n, 0)
    tracer = layers.Tracer()
    layers.replica(api, layers.Job("validate", 1.0, n, 0), tracer, 500, None, values)
    assert "oracle" in tracer.layer_self()


def test_library_and_command_calls(layers, api, tmp_path):
    for kind, n in (("sample", 50), ("trace", 1), ("analyze", 1), ("validate", 10_000)):
        assert layers.library_seconds(api, layers.Job(kind, 1.0, n, 0)) > 0.0
    argv = ["sample", "--beta", "1", "--n", "50", "--seed", "0", "--out", str(tmp_path / "rows")]
    secs = layers.format_seconds(api, layers.Job("sample", 1.0, 50, 0), argv, pairs=1)
    assert math.isfinite(secs)
    assert (tmp_path / "rows").read_text().count("\n") == 51


def test_probe_round_values_are_finite(layers, api):
    values, rounds = layers.probes(api, 1.0, 0, deadline=perf_counter())
    assert rounds == 1
    assert all(v is not None and math.isfinite(v) for v in values.values()), values


def test_import_split_names_every_package(layers):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import vervaat.cli"],
        env=env, capture_output=True, text=True, check=True,
    ).stderr
    split = layers.import_split(layers.parse_importtime(err))
    for key in ("numpy", "scipy", "click", "cum:vervaat.cli", "cum:vervaat.runtime"):
        assert split.get(key, 0.0) > 0.0, key


@pytest.fixture(scope="module")
def reference():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import reference
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return reference


@pytest.mark.parametrize(
    "beta, n, seed, replayed",
    [
        # deep's shape: 400 rows, all on the per-row path; replay the first
        # rows and the longest walk
        (3.0, 400, 1001, [0, 1, 2, 3]),
        # dickman's engine: numpy lockstep rounds, the last running rows resumed per row
        (1.0, 2000, 2001, range(2000)),
    ],
)
def test_reference_replayer_matches_sample_many(reference, beta, n, seed, replayed):
    values, steps, d0s = sample_many(make_params(beta), n, seed)
    replayed = {*replayed, int(steps.argmax())}
    replayer = reference.Replayer(beta, seed)
    for i in sorted(replayed):
        draw = replayer.draw(i)
        assert (draw.value, draw.steps, draw.d0) == (values[i], steps[i], d0s[i]), i


@pytest.mark.parametrize(
    "command",
    [
        "sample --beta 1 --n 100000 --seed 0",
        "sample --beta 3 --n 400 --seed 0",
        "analyze --beta 1",
        "trace --beta 1 --seed 2",
        "validate --beta 1 --n 100000 --seed 0",
    ],
)
def test_output_matches_the_recorded_digest(command):
    """The benchmark compares every output byte for byte with
    ``perfbench/digests.json``; the suite makes the same check in process,
    so a change in output bytes fails here first."""
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())[command]
    r = CliRunner().invoke(main, command.split(), catch_exceptions=False)
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == recorded
