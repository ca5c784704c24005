import json
import math
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vervaat.cli import _CSV_NUMPY_MIN, _CSV_ROWS, _csv_rows, _value_digits, main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("vervaat").joinpath("report.schema.json").read_text()
    return json.loads(text)


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def validate_schema(payload, schema):
    jsonschema.validate(payload, schema)


class TestSample:
    def test_csv_schema(self):
        r = run("sample", "--beta", "1", "--n", "3", "--seed", "7")
        assert r.exit_code == 0
        lines = r.output.strip().split("\n")
        assert lines[0] == "index,y_value,steps,d0"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            idx, y, steps, d0 = line.split(",")
            assert int(idx) == i
            assert float(y) >= 0.0
            assert int(steps) >= 1
            assert int(d0) >= 4

    def test_byte_identical_reruns(self):
        a = run("sample", "--beta", "1", "--n", "25", "--seed", "7")
        b = run("sample", "--beta", "1", "--n", "25", "--seed", "7")
        assert a.output == b.output

    def test_json_output_validates(self, schema):
        r = run("sample", "--beta", "1", "--n", "4", "--seed", "1", "--format", "json")
        payload = json.loads(r.output)
        validate_schema(payload, schema)
        assert [row["index"] for row in payload] == [0, 1, 2, 3]

    def test_out_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        r = run("sample", "--beta", "1", "--n", "2", "--seed", "9", "--out", str(target))
        assert r.exit_code == 0
        direct = run("sample", "--beta", "1", "--n", "2", "--seed", "9")
        assert target.read_text() == direct.output

    @pytest.mark.parametrize(
        "args",
        [
            ("sample", "--beta", "0", "--n", "1"),
            ("sample", "--beta", "-2", "--n", "1"),
            ("sample", "--beta", "1", "--n", "0"),
            ("sample", "--beta", "1e308", "--n", "1"),
            ("sample", "--n", "1"),
        ],
    )
    def test_bad_arguments_exit_2(self, args):
        r = CliRunner().invoke(main, list(args))
        assert r.exit_code == 2

    def test_csv_rows_match_the_f_string_form(self):
        """Both writers: ``%`` below the size crossover, numpy from it."""
        tiny = np.nextafter(0.0, 1.0)
        values = np.array(
            [0.0, tiny, 2 * tiny, 2.2250738585072014e-308 - tiny, 1.0 - 2.0**-53,
             1.0, 0.1, 1e-5, 123456.789, 1e22, 2.0**70]
            + np.random.default_rng(3).random(500).tolist()
        )
        steps = np.arange(1, values.size + 1, dtype=np.int64) * 7919
        d0s = np.arange(values.size, dtype=np.int64) % 13 + 4
        for m in (_CSV_NUMPY_MIN - 1, values.size):
            v, s, d = values[:m], steps[:m], d0s[:m]
            assert _csv_rows(40, v, s, d) == f_string_rows(40, v, s, d)

    @pytest.mark.filterwarnings("ignore::vervaat.StepBudgetWarning")
    def test_budget_abort_names_the_row(self):
        r = CliRunner().invoke(main, ["sample", "--beta", "6", "--n", "2", "--seed", "5"])
        assert r.exit_code == 3
        assert "(seed 5, index 0)" in r.stderr

    @pytest.mark.filterwarnings("ignore::vervaat.StepBudgetWarning")
    def test_budget_abort_exits_3(self):
        # beta = 6 needs ~30^6 backward steps on average: every sample hits
        # the default budget long before coalescing
        r = CliRunner().invoke(main, ["sample", "--beta", "6", "--n", "1", "--seed", "0"])
        assert r.exit_code == 3


class TestAnalyze:
    def test_dickman_report(self, schema):
        r = run("analyze", "--beta", "1", "--truncation", "400")
        payload = json.loads(r.output)
        validate_schema(payload, schema)
        assert payload["x0"] == 5
        assert payload["bounds"] == {"lower": 5.0, "upper": 15.0}
        br = payload["bracket"]
        assert br["lower"] <= 6.0791269033146813 <= br["upper"]
        assert br["truncation"] == 400
        assert 1.015 <= payload["c"] <= 1.017

    def test_small_beta_floor(self):
        payload = json.loads(run("analyze", "--beta", "0.25").output)
        assert payload["x0"] == 2

    def test_beta_two_bounds(self):
        payload = json.loads(run("analyze", "--beta", "2").output)
        assert payload["bounds"] == {"lower": 100.0, "upper": 245.0}

    def test_bad_truncation(self):
        r = CliRunner().invoke(main, ["analyze", "--beta", "1", "--truncation", "1"])
        assert r.exit_code == 2


class TestValidate:
    def test_passing_run(self, schema):
        r = run("validate", "--beta", "1", "--n", "10000", "--seed", "90210")
        assert r.exit_code == 0
        payload = json.loads(r.output)
        validate_schema(payload, schema)
        assert payload["passed"] is True

    def test_n_below_minimum_exits_2(self):
        r = CliRunner().invoke(main, ["validate", "--beta", "1", "--n", "100"])
        assert r.exit_code == 2

    def test_tampered_engine_exits_1(self, monkeypatch):
        import vervaat.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "coupler_collapses", lambda x, w1: w1 > 1.0 / (1.0 + x)
        )
        r = CliRunner().invoke(
            main, ["validate", "--beta", "1", "--n", "10000", "--seed", "90210"]
        )
        assert r.exit_code == 1
        assert json.loads(r.output)["passed"] is False


class TestTrace:
    def test_matches_sample_row_zero(self):
        tr = run("trace", "--beta", "1", "--seed", "7")
        sample_out = run("sample", "--beta", "1", "--n", "1", "--seed", "7")
        y_value = sample_out.output.strip().split("\n")[1].split(",")[1]
        last = tr.output.strip().split("\n")[-1]
        assert last == f"X0 = {y_value}"

    def test_path_rendering_consistent(self):
        tr = run("trace", "--beta", "1", "--seed", "11")
        lines = tr.output.strip().split("\n")
        d_line = next(l for l in lines if l.startswith("D "))
        u_line = next(l for l in lines if l.startswith("U "))
        d_states = [int(tok) for tok in d_line.split(":")[1].split()]
        imputed = [float(tok) for tok in u_line.split(":")[1].split()]
        assert all(d >= 4 for d in d_states)
        assert len(d_states) == len(imputed) + 1
        for s in range(1, len(d_states)):
            up_move = d_states[s - 1] == d_states[s] + 1
            assert up_move == (imputed[s - 1] > 2.0 / 3.0)

    @pytest.mark.parametrize("seed", ["-1", "-5", str(2**63 + 1)])
    def test_high_seed_matches_sample_row_zero(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tr = run("trace", "--beta", "1", "--seed", seed)
            sample_out = run("sample", "--beta", "1", "--n", "1", "--seed", seed)
        y_value = sample_out.output.strip().split("\n")[1].split(",")[1]
        assert tr.output.strip().split("\n")[-1] == f"X0 = {y_value}"

    def test_negative_seeds_differ(self):
        minus_one = run("trace", "--beta", "1", "--seed", "-1")
        minus_five = run("trace", "--beta", "1", "--seed", "-5")
        assert minus_one.output.split("\n")[-2] != minus_five.output.split("\n")[-2]

    @pytest.mark.parametrize("index", [0, 3])
    def test_index_matches_sample_row(self, index):
        tr = run("trace", "--beta", "3", "--seed", "11", "--index", str(index))
        rows = run("sample", "--beta", "3", "--n", "4", "--seed", "11").output
        y_value = rows.strip().split("\n")[1 + index].split(",")[1]
        assert tr.output.strip().split("\n")[-1] == f"X0 = {y_value}"

    def test_negative_index_exits_2(self):
        r = CliRunner().invoke(main, ["trace", "--beta", "1", "--index", "-1"])
        assert r.exit_code == 2


def f_string_rows(first, values, steps, d0s):
    return "".join(
        f"{i},{v:.17g},{s},{d}\n"
        for i, v, s, d in zip(
            range(first, first + len(values)), values.tolist(), steps.tolist(), d0s.tolist()
        )
    )


def percent_rows(first, values, steps, d0s):
    """The rows as one ``%`` operation formats them (the writer of earlier
    versions)."""
    m = len(values)
    flat = [None] * (4 * m)
    flat[0::4] = range(first, first + m)
    flat[1::4] = values.tolist()
    flat[2::4] = steps.tolist()
    flat[3::4] = d0s.tolist()
    return ("%d,%.17g,%d,%d\n" * m) % tuple(flat)


def writer_values(rng, n_random):
    """Floats that stress the numpy CSV writer, followed by 4 * n_random
    random ones: zeros, subnormals and the smallest normal, integers,
    non-finite values, the exact ties N / 2^17 for odd N in [2^17, 10 * 2^17)
    (17 decimals, so digit 18 is a 5), and 10^k with 3 neighbours on each side
    for k in [-5, 17], which covers both edges of the fast range."""
    tiny = np.nextafter(0.0, 1.0)
    normal = np.finfo(float).tiny
    special = np.array(
        [0.0, -0.0, tiny, 2 * tiny, 3 * tiny, normal - tiny, normal, normal + tiny,
         1.0, 2.0, 10.0, 100.0, 123456.0, 0.5, 1.5, 10.5, 2.0**52 + 0.5, 2.0**53,
         2.0**70, np.inf, -np.inf, np.nan, -1.5, -1e-5, np.finfo(float).max]
    )
    ties = np.arange(2**17 + 1, 10 * 2**17, 2) / 2.0**17
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    near = (powers.view(np.int64)[:, None] + np.arange(-3, 4)).ravel().view(np.float64)
    bits = rng.integers(0, 2**64, n_random, dtype=np.uint64, endpoint=False).view(np.float64)
    randoms = np.concatenate([
        bits[np.isfinite(bits)],
        10.0 ** rng.uniform(-6, 17, n_random),  # every exponent of both forms
        rng.random(n_random),
        # few significant digits: long runs of trailing zeros
        rng.integers(1, 10**6, n_random) / 10.0 ** rng.integers(0, 12, n_random),
    ])
    rng.shuffle(randoms)
    return np.concatenate([special, near, ties, randoms])


def check_writer(values, rng):
    """Compare the writer with the ``%`` form over chunks of ``_CSV_ROWS``
    rows, whose index columns cross powers of ten and 2^32, with steps from 0
    to 2^62."""
    starts = [0, 9_990, 99_900, 10**8 - 4000, 2**32 - 4000, 10**12 - 100]
    for c, lo in enumerate(range(0, len(values), _CSV_ROWS)):
        v = values[lo : lo + _CSV_ROWS]
        m = len(v)
        steps = np.where(
            rng.random(m) < 0.9,
            rng.integers(1, 20, m),
            rng.integers(0, 2**62, m, endpoint=True),
        )
        steps[: min(m, 3)] = [2**62, 10**4, 9999][:m]
        d0s = rng.integers(0, 10 ** rng.integers(1, 19) if c % 4 == 0 else 40, m)
        first = starts[c % len(starts)]
        got, want = _csv_rows(first, v, steps, d0s), percent_rows(first, v, steps, d0s)
        if got != want:  # report the first bad row, not a diff of 8192
            bad = next(
                (g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w
            )
            pytest.fail(f"chunk {c}: wrote {bad[0]!r}, want {bad[1]!r}")


class TestCsvWriter:
    """The numpy writer against ``%``, on about 10^6 values."""

    def test_matches_the_percent_form(self):
        rng = np.random.default_rng(13)
        check_writer(writer_values(rng, 80_000), rng)

    def test_fast_path_covers_the_fixed_range(self):
        """Only rows near a power of ten, and integers, take the ``%``
        fallback; an exponent off by one would send every row there."""
        x = 10.0 ** np.random.default_rng(5).uniform(-4, 15, 100_000)
        _, _, slow = _value_digits(x)
        assert slow.mean() < 0.01


def run_cleanly(*args):
    """Invoke the CLI and assert it ends in a documented exit code with no
    traceback; return the result."""
    r = CliRunner().invoke(main, list(args))
    assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.exception)
    assert r.exit_code in (0, 1, 2, 3), (args, r.exit_code)
    assert "Traceback" not in r.output
    return r


@pytest.mark.filterwarnings("ignore::vervaat.StepBudgetWarning")
class TestNoTraceback:
    """Extreme inputs exit 0-3, never in a traceback."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.floats())
    @example(5e-324)
    @example(1e-200)
    @example(109.0)
    @example(120.0)
    @example(1e17)
    @example(9.4e17)
    @example(1e308)
    def test_analyze_any_beta(self, beta):
        r = run_cleanly("analyze", f"--beta={beta!r}")
        if r.exit_code == 0:
            payload = json.loads(r.output)
            numbers = [*payload["bounds"].values(), payload["bracket"]["lower"],
                       payload["bracket"]["upper"]]
            assert all(math.isfinite(v) for v in numbers)
            assert payload["bracket"]["lower"] <= payload["bracket"]["upper"]
        else:
            assert r.exit_code == 2

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.integers(-5, 2000), st.integers(-(2**63), 2**64 - 1))
    @example(0, -(2**63))
    @example(1, 2**64 - 1)
    def test_sample_any_n_and_seed(self, n, seed):
        r = run_cleanly("sample", "--beta", "1", "--n", str(n), "--seed", str(seed))
        assert r.exit_code == (0 if n >= 1 else 2)
        if r.exit_code == 0:
            assert r.output.count("\n") == n + 1

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(st.integers(-1, 2**64))
    @example(-1)
    @example(2**64)
    def test_trace_any_index(self, index):
        r = run_cleanly("trace", "--beta", "1", "--index", str(index))
        assert r.exit_code == (0 if 0 <= index < 2**64 else 2)

    @settings(max_examples=12, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from([9999, 10000]), st.sampled_from([None, -1, 0, 1, 1000, 1001]))
    def test_validate_n_and_depth_at_their_limits(self, n, depth):
        args = ["validate", "--beta", "1", "--n", str(n)]
        if depth is not None:
            args += ["--depth", str(depth)]
        r = run_cleanly(*args)
        if n < 10_000 or not (depth is None or 0 <= depth <= 1000):
            assert r.exit_code == 2
        else:
            assert r.exit_code in (0, 1)
            json.loads(r.stdout)

    @pytest.mark.parametrize(
        "args, code, says",
        [
            (("sample", "--beta", "200", "--n", "600"), 3, "~ inf"),
            (("sample", "--beta", "1e20", "--n", "2"), 2, "2^62"),
            (("sample", "--beta", "1e300", "--n", "2"), 2, "2^62"),
            (("sample", "--beta", "1e308", "--n", "2"), 2, "2^62"),
            (("sample", "--beta", "5e-324", "--n", "3"), 0, "index,y_value"),
            (("trace", "--beta", "200"), 3, "~ inf"),
            (("trace", "--beta", "1e20"), 2, "2^62"),
            (("trace", "--beta", "1e308"), 2, "2^62"),
            (("trace", "--beta", "1", "--index", str(2**64)), 2, "--index"),
            (("trace", "--beta", "1", "--index", str(2**64 - 1)), 0, "X0 = "),
            (("validate", "--beta", "1e-200", "--n", "10000"), 1, '"passed": false'),
            (("validate", "--beta", "1e308", "--n", "10000"), 2, "2^62"),
            (("validate", "--beta", "1", "--depth", "-1"), 2, "--depth"),
            (("analyze", "--beta", "120"), 2, "exceeds 1e+300"),
            (("analyze", "--beta", "1", "--truncation", "100000000000"), 2, "--truncation"),
            (("validate", "--beta", "1", "--depth", "100000000000"), 2, "0<=x<=1000"),
            (("validate", "--beta", "1", "--depth", "1001"), 2, "0<=x<=1000"),
            (("validate", "--beta", "1", "--n", "100000000000"), 2, "10000<=x<=10000000"),
            (("validate", "--beta", "50", "--n", "10000"), 2, "maximum 1000"),
            (("validate", "--beta", "1e17", "--n", "10000"), 2, "maximum 1000"),
            (("sample", "--beta", "1", "--n", "100000000000000"), 2, "1<=x<=100000000"),
            (("analyze", "--beta", "20"), 2, "cancellation"),
            (("sample", "--beta", "1", "--n", "1", "--seed", str(2**64)), 2, "--seed"),
            (("sample", "--beta", "1", "--n", "1", "--seed", str(-(2**63) - 1)), 2, "--seed"),
        ],
    )
    def test_extreme_cases(self, args, code, says):
        r = run_cleanly(*args)
        assert r.exit_code == code and says in r.output
        if code == 1:
            json.loads(r.stdout)
