"""Byte identity against recorded output: the sha256 of ``sample_many``'s rows
for a fixed set of cases, from the compiled kernel in one call and in two,
from a fresh build and from the fallback where no build succeeds, of
``sample``'s CSV text with the kernel's writer and with ``%``, and of two
``trace`` runs.

The other engine tests compare paths with each other (the kernel with
``run_ciaftp``), so a change made alike to both sides passes them; these
hashes compare with the past.  They change only with a declared change of
the output bytes, which re-records them.
"""

import hashlib
import os
import shutil
import subprocess
import sysconfig

import pytest
from click.testing import CliRunner

import vervaat.engine as engine_mod
from vervaat import make_params, sample_many
from vervaat.cli import main

#: (beta, n, seed, first_index) -> sha256 of values, steps and d0s.
SAMPLES = {
    (0.25, 100_000, 0, 0):
        "aeef770e52061e07c1c277c981a6bec04608b27b8a03631c271558c1902f035f",
    (1.0, 100_000, 0, 0):
        "3a59b6da0f803b13768ddc93d33ee09052e73ab977de8af4e41266f9a557d89f",
    (2.0, 2048, 0, 0):
        "5edba7e871823d13c727aa2ca01d8da9ca376d3a2aa4eecf5ca71ca479b8ba2e",
    (2.0, 512, 3, 0):
        "7e7ce3b91884246bad00ad481091ecfc3017fb23b791b1bd9c1c360272610dcd",
    (3.0, 400, 0, 0):
        "0cfdc23d1a5940ce45abf1af53fdb50167b5505878a07d723608ec9399831b16",
    (0.25, 511, 2, 2**64 - 511):
        "ed8233cfc4f23f7d2f8226b68f18fb87a0dc406054928f40b6866bc5265115aa",
    (0.5, 50_000, 1, 0):
        "38a0fbd147baa9c567fccfff0c65fbfca1fff502d7e2af369943fc94b74d5b35",
    (1.0, 20_000, 5, 2**63):
        "2b7814f32918f574ec81bba2cd381293d9ad33f431e195179f07a142c6ee0a14",
    # walks shorter than 128 steps on average, and longer
    (1.8, 3000, 0, 0):
        "a4625542c576f33b6c885009e841c7cb49d2caff3892215429222f0c98f548dc",
    (2.2, 1024, 0, 0):
        "3fea822dee80568450d27d5c186365d6e1375d9d7faf0ec186a9d1c815c7a931",
}

#: ``sample`` arguments -> sha256 of its CSV output.  At beta = 0.25 about
#: 9 % of the values are below 1e-4, which ``%.17g`` writes in exponent form.
CSVS = {
    ("--beta", "0.25", "--n", "100000", "--seed", "0"):
        "aa931ffd2f871bafad907d0df7a5c878c291b28495ac9835bb98d121476297f4",
    ("--beta", "1", "--n", "100000", "--seed", "0"):
        "e050955c11b6b9e692db2b44b8c93f0999ab2ea26234da3af4c9741c0fdf1a3c",
    ("--beta", "3", "--n", "400", "--seed", "0"):
        "cc6149631aeae5a219d208e4285ed3f791268277c7da5be2bb97329db664fe3a",
    ("--beta", "1", "--n", "10", "--seed", "0"):
        "ff02b261816900dba662425e80b1e9aaa55dd59a73b7f451667c647c9388b067",
}

#: ``trace`` arguments -> sha256 of its output.
TRACES = {
    ("--beta", "0.25", "--seed", "0", "--index", "0"):
        "39c5f4a232f6cc905bb764e1d11d52b572297054c462182d82c927a0b2a4c781",
    ("--beta", "2", "--seed", "0", "--index", "17"):
        "08942c2e0abae580da12b6726b1160689b0a497aaec037072e1155356574f82f",
}


def rows_digest(values, steps, d0s):
    return hashlib.sha256(values.tobytes() + steps.tobytes() + d0s.tobytes()).hexdigest()


@pytest.mark.parametrize("calls", [1, 2])
@pytest.mark.parametrize("case", list(SAMPLES), ids=str)
def test_sample_many_bytes(case, calls, monkeypatch):
    beta, n, seed, first_index = case
    params = make_params(beta)
    # the kernel takes all rows in one call, or in two ranges of rows
    rows = -(-n // calls)
    monkeypatch.setattr(engine_mod, "_CALL_WORK", rows * engine_mod._power(params.x0, beta))
    got = sample_many(params, n, seed, first_index=first_index)
    assert rows_digest(*got) == SAMPLES[case]


@pytest.fixture
def fresh_tree(tmp_path, monkeypatch):
    """A copy of the kernel source with no compiled file beside it or in the
    user cache, and the kernel not yet loaded."""
    package = tmp_path / "vervaat"
    package.mkdir()
    monkeypatch.setattr(engine_mod, "_SOURCE", shutil.copy(engine_mod._SOURCE, package))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    engine_mod._kernel.cache_clear()
    yield tmp_path
    engine_mod._kernel.cache_clear()


@pytest.mark.parametrize("writable", [True, False])
def test_a_fresh_tree_builds_the_kernel(fresh_tree, writable, monkeypatch):
    # the build lands in the package directory, or in the user cache where
    # that is not writable
    package = str(fresh_tree / "vervaat")
    if not writable:
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: p != package and access(p, mode))
    where = fresh_tree / "vervaat" if writable else fresh_tree / "home" / ".cache" / "vervaat"
    # a build from an older source, one named before the platform was,
    # another platform's build and another process's build in progress: only
    # the first two are removed
    where.mkdir(parents=True, exist_ok=True)
    platform = sysconfig.get_platform()
    stale = where / f"_kernel-{platform}-{'0' * 64}.so"
    unnamed = where / f"_kernel-{'ab' * 32}.so"
    other = where / f"_kernel-other-platform-{'0' * 64}.so"
    building = where / f"_kernel-{platform}-{'0' * 64}.so.1.tmp"
    for planted in (stale, unnamed, other, building):
        planted.write_bytes(b"")
    for case in list(SAMPLES)[:3]:
        beta, n, seed, first_index = case
        got = sample_many(make_params(beta), n, seed, first_index=first_index)
        assert rows_digest(*got) == SAMPLES[case]
    assert not stale.exists() and not unnamed.exists()
    assert other.exists() and building.exists()
    assert len(list(where.glob(f"_kernel-{platform}-*.so"))) == 1
    assert len(list(fresh_tree.rglob("*.so"))) == 2


def test_a_failed_build_falls_back_to_run_ciaftp(fresh_tree, monkeypatch):
    def failing(path, *defines):
        raise subprocess.CalledProcessError(1, "cc", stderr=b"cc: no compiler here")

    monkeypatch.setattr(engine_mod, "_build", failing)
    with pytest.warns(UserWarning, match="no compiler here") as warned:
        for case in [c for c in SAMPLES if c[1] <= 3000]:
            beta, n, seed, first_index = case
            got = sample_many(make_params(beta), n, seed, first_index=first_index)
            assert rows_digest(*got) == SAMPLES[case]
    assert len(warned) == 1  # once per process
    assert not list(fresh_tree.rglob("*.so"))


@pytest.mark.parametrize("args", list(TRACES), ids=" ".join)
def test_trace_bytes(args):
    r = CliRunner().invoke(main, ["trace", *args], catch_exceptions=False)
    assert r.exit_code == 0
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == TRACES[args]


def sample_csv_digest(args):
    r = CliRunner().invoke(main, ["sample", *args], catch_exceptions=False)
    assert r.exit_code == 0
    return hashlib.sha256(r.stdout_bytes).hexdigest()


@pytest.mark.parametrize("args", list(CSVS), ids=" ".join)
def test_sample_csv_bytes(args):
    assert sample_csv_digest(args) == CSVS[args]


def test_sample_csv_bytes_without_the_kernel(monkeypatch):
    # rows from run_ciaftp, text from %
    monkeypatch.setattr(engine_mod, "_kernel", lambda: None)
    args = ("--beta", "1", "--n", "10", "--seed", "0")
    assert sample_csv_digest(args) == CSVS[args]
