import ctypes
import inspect
import math
import shlex
import shutil
import sysconfig
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

from vervaat import (
    BackwardPath,
    StepBudgetError,
    StepBudgetWarning,
    UniformStream,
    backward_extend,
    draw_initial_dominating,
    forward_reconstruct,
    make_params,
    run_ciaftp,
    sample_many,
)

import vervaat.engine as engine_mod
from vervaat.updates import TWO_THIRDS, coupler_collapses
from conftest import ScriptedStream, audit_path


@pytest.fixture
def dickman():
    return make_params(1.0)  # x0 = 5, floor 4, threshold 2/3


class TestInitialState:
    def test_geometric_one(self, dickman):
        assert draw_initial_dominating(dickman, ScriptedStream([0.5])) == 4

    def test_geometric_three(self, dickman):
        assert draw_initial_dominating(dickman, ScriptedStream([0.2])) == 6

    def test_support(self, dickman):
        s = UniformStream(11)
        draws = [draw_initial_dominating(dickman, s) for _ in range(5000)]
        assert min(draws) >= dickman.x0 - 1


class TestBackwardExtend:
    def test_hold_then_coalesce(self, dickman):
        # at the floor, backward 'down' holds; forward hold imputes on
        # (0, 2/3]: u' = 0.1 -> U = 1/15 <= 1/5, so the step coalesces
        path = BackwardPath(d_states=[4])
        backward_extend(dickman, path, ScriptedStream([0.5, 0.1]))
        assert path.d_states == [4, 4]
        assert path.imputed_u[0] == pytest.approx(1.0 / 15.0, abs=1e-15)
        assert path.coalesce_index == 1

    def test_hold_without_coalescence(self, dickman):
        path = BackwardPath(d_states=[4])
        backward_extend(dickman, path, ScriptedStream([0.5, 0.9]))
        assert path.d_states == [4, 4]
        assert path.imputed_u[0] == pytest.approx(0.6, abs=1e-15)
        assert path.coalesce_index is None

    def test_backward_up_move_coalesces(self, dickman):
        # backward up to 5; the forward move 5 -> 4 is down, so impute on
        # (0, 2/3]: u' = 0.2 -> U = 2/15 <= 1/6
        path = BackwardPath(d_states=[4])
        backward_extend(dickman, path, ScriptedStream([0.9, 0.2]))
        assert path.d_states == [4, 5]
        assert path.imputed_u[0] == pytest.approx(2.0 / 15.0, abs=1e-15)
        assert path.coalesce_index == 1

    def test_extend_after_coalescence_rejected(self, dickman):
        path = BackwardPath(d_states=[4])
        backward_extend(dickman, path, ScriptedStream([0.5, 0.1]))
        with pytest.raises(RuntimeError, match="coalesced"):
            backward_extend(dickman, path, ScriptedStream([0.5, 0.5]))

    def test_zero_imputation_uniform_redrawn(self, dickman):
        path = BackwardPath(d_states=[4])
        backward_extend(dickman, path, ScriptedStream([0.5, 0.0, 0.9]))
        assert path.imputed_u[0] == pytest.approx(0.6, abs=1e-15)


class TestRunCiaftp:
    def test_scripted_full_run(self, dickman):
        # geometric start (U=0.5 -> D0=4), hold, coalescing imputation,
        # then the collapse value W(2) = 0.42
        s = ScriptedStream([0.5, 0.5, 0.1, 0.42])
        r = run_ciaftp(dickman, s)
        assert r.value == pytest.approx(0.42, abs=1e-15)
        assert r.steps == 1
        assert r.d0 == 4
        assert s.position == 4

    def test_single_step_draws_lie_in_unit_interval(self, dickman):
        values, steps, _ = sample_many(dickman, 20_000, seed=555)
        one_step = values[steps == 1]
        assert one_step.size > 0
        assert one_step.min() >= 0.0
        assert one_step.max() < 1.0

    def test_collect_path_records_trajectories(self, dickman):
        s = UniformStream(31)
        r = run_ciaftp(dickman, s, collect_path=True)
        assert r.path is not None
        assert len(r.x_path) == r.steps
        assert r.x_path[-1] == r.value
        audit_path(dickman, r.path)

    def test_path_legality_bulk(self):
        for beta in (0.25, 1.0, 2.0):
            params = make_params(beta)
            s = UniformStream(808)
            for idx in range(700):
                s.restart(idx)
                r = run_ciaftp(params, s, collect_path=True)
                audit_path(params, r.path)

    def test_run_replays_as_manual_backward_extension(self, dickman):
        for idx in range(200):
            r = run_ciaftp(dickman, UniformStream(4242, idx), collect_path=True)
            replay = UniformStream(4242, idx)
            path = BackwardPath(d_states=[draw_initial_dominating(dickman, replay)])
            while path.coalesce_index is None:
                backward_extend(dickman, path, replay)
            assert path.d_states == r.path.d_states
            assert path.imputed_u == r.path.imputed_u

    def test_step_budget_abort(self):
        with pytest.warns(StepBudgetWarning):
            params = make_params(1.0, step_budget=2)
        with pytest.raises(StepBudgetError, match="backward steps"):
            # substream chosen so the run needs more than two steps
            for idx in range(50):
                run_ciaftp(params, UniformStream(9, idx))


class TestForwardReconstruct:
    def test_consensus_across_starts(self, dickman):
        w2_seed = 616
        for idx in range(300):
            r = run_ciaftp(
                dickman,
                UniformStream(303, idx),
                w2_stream=UniformStream(w2_seed, idx),
                collect_path=True,
            )
            top = r.path.d_states[r.path.coalesce_index]
            outs = [
                forward_reconstruct(
                    dickman, r.path, UniformStream(w2_seed, idx), start
                )
                for start in (0.0, top / 2.0, float(top))
            ]
            assert outs[0] == outs[1] == outs[2] == r.value

    def test_requires_coalesced_path(self, dickman):
        path = BackwardPath(d_states=[4])
        with pytest.raises(ValueError, match="coalesced"):
            forward_reconstruct(dickman, path, UniformStream(1), 0.0)

    def test_start_out_of_range(self, dickman):
        s = UniformStream(77)
        r = run_ciaftp(dickman, s, collect_path=True)
        top = r.path.d_states[r.path.coalesce_index]
        with pytest.raises(ValueError, match="start"):
            forward_reconstruct(dickman, r.path, UniformStream(2), top + 1.0)
        with pytest.raises(ValueError, match="start"):
            forward_reconstruct(dickman, r.path, UniformStream(2), -0.5)


class TestSampleMany:
    def test_deterministic(self, dickman):
        a = sample_many(dickman, 30, seed=5)
        b = sample_many(dickman, 30, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_partition_invariance(self, dickman):
        whole = sample_many(dickman, 30, seed=5)
        head = sample_many(dickman, 10, seed=5)
        tail = sample_many(dickman, 20, seed=5, first_index=10)
        for w, h, t in zip(whole, head, tail):
            assert np.array_equal(w, np.concatenate([h, t]))

    def test_indices_up_to_the_last_substream(self, dickman):
        last = 2**64 - 513
        got = sample_many(dickman, 513, 1, first_index=last)
        assert_same_rows(got, per_row(dickman, 513, 1, last))

    @pytest.mark.parametrize(
        "n, first_index", [(513, 2**64 - 512), (1, 2**64), (1, -1), (0, -1)]
    )
    def test_indices_past_the_substreams_raise(self, dickman, n, first_index):
        # 513 rows from 2^64 - 512 used to wrap: the last row was substream 0's
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            sample_many(dickman, n, 1, first_index=first_index)

    def test_a_batch_holds_a_bounded_working_set(self, dickman):
        # the output, 24 bytes a row, and little else: the kernel's W(1)
        # buffer is its own malloc, about 8 bytes a step of the longest walk
        tracemalloc.start()
        try:
            sample_many(dickman, 25_000, 71)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 25_000 + 2**16

    def test_mean_steps_sane(self, dickman):
        _, steps, _ = sample_many(dickman, 20_000, seed=555)
        assert 5.0 <= steps.mean() <= 7.5  # coarse; the exact check is acceptance

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_stationary_output_mean(self, beta, batch_by_beta):
        # 1e6 draws for beta in {0.5, 1}, 1e5 for beta = 2
        values = batch_by_beta[beta][0]
        se = values.std() / math.sqrt(values.size)
        assert abs(values.mean() - beta) <= 4 * se


def per_row(params, n, seed, first_index=0, stream_type=UniformStream):
    """The reference for sample_many: run_ciaftp on each row's substream."""
    rows = [
        run_ciaftp(params, stream_type(seed, first_index + i)) for i in range(n)
    ]
    return (
        np.array([r.value for r in rows]),
        np.array([r.steps for r in rows], dtype=np.int64),
        np.array([r.d0 for r in rows], dtype=np.int64),
    )


def assert_same_rows(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.fixture(scope="module")
def script_library(tmp_path_factory):
    """The kernel source built with VERVAAT_SCRIPT, which the shipped build
    leaves out: the uniforms that vervaat_script names read scripted values."""
    return engine_mod._build(str(tmp_path_factory.mktemp("kernel") / "script.so"),
                             "-DVERVAAT_SCRIPT")


@pytest.fixture
def script_kernel(script_library, monkeypatch):
    """Makes sample_many run the VERVAAT_SCRIPT build; returns a function that
    takes {(index, position): uniform} for the kernel to read."""
    kernel = engine_mod._load(script_library)
    set_script = ctypes.CDLL(script_library).vervaat_script
    set_script.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong]
    monkeypatch.setattr(engine_mod, "_kernel", lambda: kernel)
    held = []

    def script(uniforms):
        at = np.array(list(uniforms), dtype=np.uint64).reshape(-1, 2)
        values = np.array(list(uniforms.values()), dtype=float)
        held[:] = at, values  # the kernel reads them until the next script
        set_script(at.ctypes.data, values.ctypes.data, len(values))

    yield script
    set_script(None, None, 0)


@pytest.mark.parametrize("defines", [(), ("-DVERVAAT_SCRIPT",)], ids=["shipped", "script"])
def test_the_kernel_builds_without_warnings(defines, tmp_path):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler {cc[0]!r}")
    engine_mod._build(str(tmp_path / "strict.so"), "-Wall", "-Wextra", "-Werror", *defines)


@pytest.fixture
def zero_kernel(script_kernel):
    """Makes sample_many read 0 at the (index, position) pairs given to the
    returned function, which returns the reference stream type for them."""

    def zeroed(zeros):
        script_kernel(dict.fromkeys(zeros, 0.0))
        return lambda seed, index: ZeroAt(seed, index, {p for i, p in zeros if i == index})

    return zeroed


class TestBatchedEngine:
    """sample_many runs the compiled per-row loop; every row must still be
    bit for bit what run_ciaftp draws on its substream."""

    @pytest.mark.parametrize(
        "beta, n, seed, first_index",
        [
            (0.25, 3000, 41, 0),
            (1.0, 3000, 42, 0),
            (1.0, 2000, 43, 123_456_789),
            (2.0, 400, 44, 0),
            (3.0, 300, 45, 7),
        ],
    )
    def test_matches_per_row_reference(self, beta, n, seed, first_index):
        params = make_params(beta)
        got = sample_many(params, n, seed, first_index=first_index)
        assert_same_rows(got, per_row(params, n, seed, first_index))

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_tiny_batches(self, dickman, n):
        assert_same_rows(sample_many(dickman, n, 46, 5), per_row(dickman, n, 46, 5))

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_zero_uniforms_are_redrawn(self, beta, zero_kernel):
        # (index, position) of uniforms forced to 0: a geometric start, the
        # imputation of backward steps 1 and 2 and of the longest walk's step
        # T - 1, a walk direction (a zero there is a valid down-move, no
        # redraw), and a second driver
        params = make_params(beta)
        n, seed = 60, 47
        _, steps, _ = per_row(params, n, seed)
        longest = int(np.argmax(steps))
        zeros = {(3, 0), (5, 2), (8, 4), (9, 1), (11, 2 * int(steps[11]) + 1),
                 (longest, 2 * int(steps[longest]) - 2)}
        stream_type = zero_kernel(zeros)
        want = per_row(params, n, seed, stream_type=stream_type)
        got = sample_many(params, n, seed)
        assert_same_rows(got, want)
        plain = per_row(params, n, seed)
        for i in (3, 5, 8, longest):  # a redrawn zero shifts the rest of its row
            assert got[0][i] != plain[0][i]

    def test_the_geometric_start_matches_geometric_half(self, dickman, script_kernel):
        # where ceil(-log(u) / ln 2) misses the law (u = 2^-j), and beside it
        u = [2.0**-j + e for j in (29, 31, 39, 47, 51) for e in (-(2.0**-53), 0.0, 2.0**-53)]
        script_kernel({(i, 0): v for i, v in enumerate(u)})
        d0s = sample_many(dickman, len(u), 49)[2]
        assert d0s.tolist() == [draw_initial_dominating(dickman, ScriptedStream([v])) for v in u]

    def test_step_budget_error_for_the_first_row_that_aborts(self):
        with pytest.warns(StepBudgetWarning):
            params = make_params(1.0, step_budget=2)
        steps = per_row(make_params(1.0), 400, 48)[1]
        first_abort = int(np.argmax(steps > 2))
        assert first_abort > 0
        head = sample_many(params, first_abort, 48)
        assert_same_rows(head, per_row(params, first_abort, 48))
        with pytest.raises(StepBudgetError):
            sample_many(params, 400, 48)

    @pytest.mark.parametrize("rows_per_call", [1, 7, 400])
    def test_the_first_abort_is_named_whatever_the_calls(self, rows_per_call, monkeypatch):
        # sample_many calls the kernel over ranges of rows (of x0^beta = 5
        # work each here); the abort of a later range is never named first
        monkeypatch.setattr(engine_mod, "_CALL_WORK", rows_per_call * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            params = make_params(1.0, step_budget=12)
        late = per_row(make_params(1.0), 400, 75)[1] > 12
        assert late.sum() >= 3
        with pytest.raises(StepBudgetError) as err:
            sample_many(params, 400, 75)
        assert (err.value.seed, err.value.index) == (75, int(np.argmax(late)))

    def test_zeros_before_the_first_abort(self, zero_kernel):
        # zero starts and imputations move rows' walks; the first abort and
        # the rows before it are still the reference's
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            params = make_params(1.0, step_budget=12)
        stream_type = zero_kernel({(2, 0), (4, 2), (6, 1), (10, 0), (11, 0)})
        first = 0
        with pytest.raises(StepBudgetError):
            while True:
                run_ciaftp(params, stream_type(75, first))
                first += 1
        assert first > 6
        with pytest.raises(StepBudgetError) as err:
            sample_many(params, 400, 75)
        assert (err.value.seed, err.value.index) == (75, first)
        got = sample_many(params, first, 75)
        assert_same_rows(got, per_row(params, first, 75, stream_type=stream_type))


#: Steps past which a walk counts as long in these tests.
LONG_WALK = 64


def stepwise(params, stream):
    """The per-step reference: backward_extend at every step, then the
    forward loop written out.  Returns (path, forward trajectory)."""
    path = BackwardPath(d_states=[draw_initial_dominating(params, stream)])
    while path.coalesce_index is None:
        backward_extend(params, path, stream)
    inv_beta = params.inv_beta
    x = stream.next_uniform() ** inv_beta
    x_path = [x]
    for s in range(path.coalesce_index - 1, 0, -1):
        w1 = path.imputed_u[s - 1] ** inv_beta
        if w1 <= 1.0 / (1.0 + x):
            x = stream.next_uniform() ** inv_beta
        else:
            x = w1 * (1.0 + x)
        x_path.append(x)
    return path, x_path


class ZeroAt(UniformStream):
    """A substream whose uniforms at the given positions read 0."""

    def __init__(self, seed, index, zeros):
        super().__init__(seed, index)
        self.zeros = frozenset(zeros)

    def next_uniform(self):
        pos = self.position
        u = super().next_uniform()
        return 0.0 if pos in self.zeros else u


class ArrayStream:
    """Replays a fixed array of uniforms, counting them in ``position``."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.position = 0

    def next_uniform(self):
        self.position += 1
        return float(self.values[self.position - 1])


def kernel_row(params, u, script):
    """(value, steps, d0) of the kernel's row 0 on the uniforms ``u``."""
    script({(0, p): v for p, v in enumerate(u.tolist())})
    values, steps, d0s = sample_many(params, 1, 0)
    return values[0], steps[0], d0s[0]


def reference_row(params, u):
    """(value, steps, d0) of the per-step replay of the uniforms ``u``."""
    path, x_path = stepwise(params, ArrayStream(u))
    return x_path[-1], path.coalesce_index, path.d_states[0]


def assert_same_run(params, got, want_path, want_x):
    assert got.path.d_states == want_path.d_states
    assert got.path.imputed_u == want_path.imputed_u
    assert got.path.coalesce_index == want_path.coalesce_index == got.steps
    assert got.x_path == want_x
    assert got.value == want_x[-1]
    audit_path(params, got.path)


class TestChunkedBackward:
    """run_ciaftp and the kernel on walks longer than LONG_WALK steps, at
    step counts and budgets on both sides of powers of two, with zeros and
    boundary collapses: every run must be bit for bit the per-step replay."""

    @pytest.mark.parametrize("beta, seed", [(2.0, 61), (3.0, 62)])
    def test_long_runs_match_the_per_step_replay(self, beta, seed):
        params = make_params(beta)
        long_runs = 0
        for idx in range(24):
            got = run_ciaftp(params, UniformStream(seed, idx), collect_path=True)
            assert_same_run(params, got, *stepwise(params, UniformStream(seed, idx)))
            long_runs += got.steps > LONG_WALK
        assert long_runs >= 8

    @pytest.mark.parametrize(
        "zeros",
        [
            {2 * 100},  # imputation of step 100
            {2 * 100 - 1},  # its direction: a valid down-move, no redraw
            {2 * 65, 2 * 300},  # two zeros in one walk
        ],
    )
    def test_zero_inside_a_chunk(self, zeros):
        params = make_params(3.0)
        idx = next(
            i for i in range(50) if run_ciaftp(params, UniformStream(63, i)).steps > 400
        )
        got = run_ciaftp(params, ZeroAt(63, idx, zeros), collect_path=True)
        assert_same_run(params, got, *stepwise(params, ZeroAt(63, idx, zeros)))
        if any(z % 2 == 0 for z in zeros):  # a redrawn imputation shifts the stream
            assert got.value != run_ciaftp(params, UniformStream(63, idx)).value

    @staticmethod
    def coalescing_at(params, t_coal):
        """Uniforms for a beta = 1 run that coalesces at step t_coal.

        Random directions; imputation uniforms >= 1/2 cannot coalesce,
        except step t_coal's tiny one.  Step 70 just misses: its U = W(1)
        exceeds 1/(1 + D) by an ulp, a near miss of the exact predicate.
        """
        rng = np.random.default_rng(t_coal)
        u = rng.random(4 * t_coal + 200)  # with the forward pass's up to T
        u[2::2] = 0.5 + u[2::2] / 2
        u[0] = 0.5  # D(0) = floor
        u[2 * t_coal - 1 : 2 * t_coal + 1] = 0.9, 1e-6  # backward up: U = 2/3 * 1e-6
        u[1 : 2 * 70 : 2] = 0.5  # hold at the floor up to step 70
        thr = 1.0 / (1.0 + (params.x0 - 1))
        u[2 * 70] = math.nextafter(thr / TWO_THIRDS, 1.0)
        assert thr < TWO_THIRDS * u[2 * 70] <= thr * (1 + 1e-9)
        return u

    @pytest.mark.parametrize("t_coal", [64, 65, 100, 128, 129, 256, 257, 4000])
    def test_coalescence_at_chunk_edges(self, dickman, t_coal):
        u = self.coalescing_at(dickman, t_coal)
        got = run_ciaftp(dickman, ArrayStream(u), collect_path=True)
        assert got.steps == t_coal
        assert_same_run(dickman, got, *stepwise(dickman, ArrayStream(u)))

    @staticmethod
    def on_the_boundary(params, t_coal):
        """Uniforms for a run that holds at the floor and coalesces at step
        t_coal, where W(1) is exactly 1/(1 + D): the boundary collapses."""
        u = TestChunkedBackward.coalescing_at(params, t_coal)
        u[1 : 2 * t_coal : 2] = 0.5  # hold at the floor: U = (2/3) u
        thr = 1.0 / (1.0 + (params.x0 - 1))
        lo = hi = thr**params.beta / TWO_THIRDS
        while not any((TWO_THIRDS * r) ** params.inv_beta == thr for r in (lo, hi)):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 1.0)
        u[2 * t_coal] = lo if (TWO_THIRDS * lo) ** params.inv_beta == thr else hi
        return u

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("t_coal", [64, 65, 100, 129])
    def test_coalescence_on_the_boundary(self, beta, t_coal):
        params = make_params(beta)
        u = self.on_the_boundary(params, t_coal)
        got = run_ciaftp(params, ArrayStream(u), collect_path=True)
        assert got.steps == t_coal
        assert got.path.imputed_u[-1] ** params.inv_beta == 1.0 / params.x0
        assert_same_run(params, got, *stepwise(params, ArrayStream(u)))

    @staticmethod
    def budget_edge(beta, budget):
        """A run that coalesces at exactly ``budget`` steps completes, as the
        per-step replay; one that coalesces a step later aborts, having read
        no uniform past the budget."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            params = make_params(beta, step_budget=budget)
        u = TestChunkedBackward.coalescing_at(params, budget)
        got = run_ciaftp(params, ArrayStream(u), collect_path=True)
        assert got.steps == budget
        assert_same_run(params, got, *stepwise(params, ArrayStream(u)))
        stream = ArrayStream(TestChunkedBackward.coalescing_at(params, budget + 1))
        with pytest.raises(StepBudgetError):
            run_ciaftp(params, stream)
        assert stream.position <= 2 * budget + 1  # read nothing past the budget

    @staticmethod
    def budget_aborts(beta, budget, seed, ref):
        """Rows of ``seed`` abort exactly where their per-step T, ``ref``,
        exceeds ``budget``, and sample_many names the first of them."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            params = make_params(beta, step_budget=budget)
        for i, t_ref in enumerate(ref):
            stream = UniformStream(seed, i)
            if t_ref > budget:
                with pytest.raises(StepBudgetError) as err:
                    run_ciaftp(params, stream)
                assert (err.value.seed, err.value.index) == (seed, i)
                assert stream.position <= 2 * budget + 1
            else:
                assert run_ciaftp(params, stream).steps == t_ref
        first = next(i for i, t in enumerate(ref) if t > budget)
        with pytest.raises(StepBudgetError) as err:
            sample_many(params, len(ref), seed)
        assert (err.value.seed, err.value.index) == (seed, first)
        assert f"(seed {seed}, index {first})" in str(err.value)

    @pytest.mark.parametrize("budget", [64, 65, 200])
    def test_step_budget_edge(self, budget):
        self.budget_edge(1.0, budget)

    @pytest.mark.parametrize("t_coal", [64, 129, 257, 4000])
    def test_the_kernel_at_chunk_edges(self, dickman, t_coal, script_kernel):
        u = self.coalescing_at(dickman, t_coal)
        assert kernel_row(dickman, u, script_kernel) == reference_row(dickman, u)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("t_coal", [64, 65, 100, 129])
    def test_the_kernel_on_the_boundary(self, beta, t_coal, script_kernel):
        # W(1) == 1/(1 + D) collapses in the kernel as in the Python code
        params = make_params(beta)
        u = self.on_the_boundary(params, t_coal)
        got = kernel_row(params, u, script_kernel)
        assert got == reference_row(params, u) and got[1] == t_coal

    def test_the_kernel_collapses_forward_on_the_boundary(self, dickman, script_kernel):
        # D(0) = 4 holds twice and coalesces at T = 2; X(-1) = 0.75, and step
        # 1's W(1) = (2/3) u is exactly 1/(1 + X(-1)), so X(0) = W(2) = 0.3
        x, raw = 0.75, 0.8571428571428571
        assert TWO_THIRDS * raw == 1.0 / (1.0 + x)
        u = np.array([0.5, 0.5, raw, 0.5, 1e-6, x, 0.3])
        assert kernel_row(dickman, u, script_kernel) == reference_row(dickman, u) == (0.3, 2, 4)

    @pytest.mark.parametrize("budget", [64, 65, 200])
    def test_the_kernel_at_the_budget_edge(self, budget, script_kernel):
        # a walk of exactly ``budget`` steps completes; one a step longer aborts
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            params = make_params(1.0, step_budget=budget)
        u = self.coalescing_at(params, budget)
        got = kernel_row(params, u, script_kernel)
        assert got == reference_row(params, u) and got[1] == budget
        with pytest.raises(StepBudgetError):
            kernel_row(params, self.coalescing_at(params, budget + 1), script_kernel)

    @pytest.mark.parametrize("budget", [64, 65, 200])
    def test_step_budget_aborts_the_same_rows(self, budget):
        params = make_params(2.0)
        ref = [stepwise(params, UniformStream(64, i))[0].coalesce_index for i in range(40)]
        assert min(ref) <= budget < max(ref)
        self.budget_aborts(2.0, budget, 64, ref)

    @pytest.mark.parametrize("rows_per_call", [512, 16])
    def test_sample_many_past_the_prefix(self, monkeypatch, rows_per_call):
        # the rows in one kernel call, or in three
        params = make_params(3.0)
        work = rows_per_call * engine_mod._power(params.x0, params.beta)
        monkeypatch.setattr(engine_mod, "_CALL_WORK", work)
        values, steps, d0s = sample_many(params, 40, 65, first_index=3)
        assert (steps > LONG_WALK).sum() >= 30
        for i in range(40):
            path, x_path = stepwise(params, UniformStream(65, 3 + i))
            assert (values[i], steps[i], d0s[i]) == (
                x_path[-1], path.coalesce_index, path.d_states[0]
            )


@pytest.fixture(scope="module")
def beta3_refs():
    """T of rows 0..39 of seed 66 at beta = 3, from the per-step replay."""
    params = make_params(3.0)
    return [stepwise(params, UniformStream(66, i))[0].coalesce_index for i in range(40)]


class TestFirstChunk:
    """Budget edges at beta = 3 (x0^beta = 3375, E[T] about 3948), from 64
    steps to past the mean, with one adjacent pair."""

    @pytest.mark.parametrize("budget", [64, 1000, 1687, 1688, 5000])
    def test_step_budget_edge(self, budget):
        TestChunkedBackward.budget_edge(3.0, budget)

    @pytest.mark.parametrize("budget", [64, 1000, 1687, 1688, 5000])
    def test_step_budget_aborts_the_same_rows(self, budget, beta3_refs):
        TestChunkedBackward.budget_aborts(3.0, budget, 66, beta3_refs)

    def test_budgets_split_the_rows(self, beta3_refs):
        # every budget above but 64 has rows on both sides of it
        assert min(beta3_refs) <= 1000 and max(beta3_refs) > 5000


class _ZeroStream:
    """Second drivers that all read 0, so a collapsing step lands on 0."""

    def next_uniform(self):
        return 0.0


class TestInlinedCoupler:
    """_forward_walk inlines coupler_collapses; it must take the same branch
    on every input, the boundary w1 == 1 / (1 + x) included."""

    def test_branch_matches_the_predicate(self):
        rng = np.random.default_rng(67)
        xs = [0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, math.nextafter(3.0, 0.0), 7.25, 1e6]
        xs += (rng.random(300) * 30.0).tolist()
        for params in (make_params(1.0), make_params(3.0)):
            branches = set()
            for x in xs:
                thr = 1.0 / (1.0 + x)
                for w1 in (math.nextafter(thr, 0.0), thr, math.nextafter(thr, 1.0)):
                    # the driver is w1 itself at every beta: the walk takes W(1)
                    got = engine_mod._forward_walk(params, [w1], x, _ZeroStream())
                    collapses = coupler_collapses(x, w1)
                    assert got == (0.0 if collapses else w1 * (1.0 + x)), (x, w1)
                    branches.add(collapses)
            assert branches == {True, False}

    def test_flipped_branch_breaks_beta3_rows(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(engine_mod._forward_walk))
        inlined = "if w1 <= 1.0 / y:"
        assert source.count(inlined) == 1
        namespace = dict(vars(engine_mod))
        exec(source.replace(inlined, "if w1 > 1.0 / y:"), namespace)
        monkeypatch.setattr(engine_mod, "_forward_walk", namespace["_forward_walk"])
        params = make_params(3.0)
        for i in range(4):
            got = run_ciaftp(params, UniformStream(68, i))
            path, x_path = stepwise(params, UniformStream(68, i))
            assert got.steps == path.coalesce_index
            assert got.value != x_path[-1]
