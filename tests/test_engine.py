import inspect
import math
import textwrap
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
from vervaat.streams import philox_block
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


def zeroed(zeros):
    """A UniformStream type and a philox_block whose uniforms at the
    (index, position) pairs in ``zeros`` read 0."""

    class ZeroedStream(UniformStream):
        __slots__ = ()

        def next_uniform(self):
            key = (self.index, self.position)
            u = super().next_uniform()
            return 0.0 if key in zeros else u

    def zeroed_block(seed_, index, block):
        out = philox_block(seed_, index, block)
        blocks = np.broadcast_to(block, np.shape(index)).tolist()
        for col, (i, b) in enumerate(zip(np.asarray(index).tolist(), blocks)):
            for word in range(4):
                if (i, 4 * b + word) in zeros:
                    out[word, col] = 0.0
        return out

    return ZeroedStream, zeroed_block


class TestBatchedEngine:
    """sample_many advances rows in numpy lockstep; every row must still be
    bit for bit what run_ciaftp draws on its substream."""

    @pytest.fixture(autouse=True)
    def low_active_floor(self, monkeypatch):
        # lets a few hundred rows exercise the lockstep rounds, the handoff
        # at the lockstep depth and the handoff of the last running rows
        monkeypatch.setattr(engine_mod, "_MIN_ACTIVE", 64)

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
    def test_matches_per_row_reference(self, beta, n, seed, first_index, monkeypatch):
        params = make_params(beta)
        resumed = []
        complete = engine_mod._complete

        def spy(params_, path, *args, done=0):
            if done:
                resumed.append(done)
            return complete(params_, path, *args, done=done)

        monkeypatch.setattr(engine_mod, "_complete", spy)
        got = sample_many(params, n, seed, first_index=first_index)
        monkeypatch.setattr(engine_mod, "_complete", complete)
        assert_same_rows(got, per_row(params, n, seed, first_index))
        # the last rows of the batch resumed mid-walk on the scalar path
        assert resumed

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_tiny_batches(self, dickman, n):
        assert_same_rows(sample_many(dickman, n, 46, 5), per_row(dickman, n, 46, 5))

    def test_zero_uniforms_resume_on_the_scalar_path(self, dickman, monkeypatch):
        # (index, position) of uniforms forced to 0: a geometric start, the
        # imputation of backward steps 1 and 2, a walk direction (a zero
        # there is a valid down-move, no redraw), and a second driver
        n, seed = 600, 47
        _, steps, _ = per_row(dickman, n, seed)
        zeros = {(3, 0), (5, 2), (8, 4), (9, 1), (11, 2 * int(steps[11]) + 1)}

        ZeroedStream, zeroed_block = zeroed(zeros)
        resumed = set()
        complete = engine_mod._complete

        def spy(params_, path, stream, *args, **kwargs):
            resumed.add(stream.index)
            return complete(params_, path, stream, *args, **kwargs)

        want = per_row(dickman, n, seed, stream_type=ZeroedStream)
        monkeypatch.setattr(engine_mod, "UniformStream", ZeroedStream)
        monkeypatch.setattr(engine_mod, "philox_block", zeroed_block)
        monkeypatch.setattr(engine_mod, "_complete", spy)
        got = sample_many(dickman, n, seed)
        assert_same_rows(got, want)
        assert {3, 5, 8} <= resumed  # the rows whose zero is redrawn
        plain = per_row(dickman, n, seed)
        for i, _ in zeros:
            assert got[0][i] != plain[0][i]

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


class TestHandOff:
    """A row leaves the lockstep after k steps as (k, D(-k)); the per-row
    path finishes its walk and rolls it forward to X(-k) only, and the
    lockstep applies steps k .. 1."""

    @pytest.mark.parametrize("budget", [64, 65, 100, 200])
    def test_step_budget_counts_the_lockstep_steps(self, budget, monkeypatch):
        # seed 62's first rows at beta = 2 have T = 26, 17, 2, 75, 72, 92,
        # 146, 238: each budget's first abort lies past a few rows, and
        # within budget + 64 steps of the hand-off at step 64
        monkeypatch.setattr(engine_mod, "_MIN_ACTIVE", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepBudgetWarning)
            params = make_params(2.0, step_budget=budget)
        ref = [run_ciaftp(make_params(2.0), UniformStream(62, i)).steps for i in range(40)]
        first = next(i for i, t in enumerate(ref) if t > budget)
        assert first >= 3 and ref[first] <= budget + engine_mod._LOCKSTEP_DEPTH
        assert_same_rows(sample_many(params, first, 62), per_row(params, first, 62))
        with pytest.raises(StepBudgetError) as err:
            sample_many(params, 40, 62)
        assert (err.value.seed, err.value.index) == (62, first)

    @pytest.mark.parametrize("min_active", [16, 128])
    def test_resumed_rows_take_only_their_own_steps(self, min_active, monkeypatch):
        """Past the hand-off at k, a resumed row's backward steps and chunks
        are the tail of run_ciaftp's own, and its forward pass takes
        T - k - 1 first drivers.  The rows leave at the lockstep depth, or
        earlier, once fewer than ``min_active`` are running."""
        monkeypatch.setattr(engine_mod, "_MIN_ACTIVE", min_active)
        params = make_params(2.0)
        n, seed = 200, 62
        events, drivers, done_at = {}, {}, {}
        extend, chunk = engine_mod.backward_extend, engine_mod._backward_chunk
        complete, walk = engine_mod._complete, engine_mod._forward_walk

        def extend_spy(params_, path, stream):
            events.setdefault(stream.index, []).append(1)
            return extend(params_, path, stream)

        def chunk_spy(params_, d, stream, k):
            events.setdefault(stream.index, []).append(("chunk", k))
            return chunk(params_, d, stream, k)

        def complete_spy(params_, path, stream, *args, done=0):
            done_at[stream.index] = done
            return complete(params_, path, stream, *args, done=done)

        def walk_spy(params_, u, x, w2s, x_path=None):
            u = list(u)
            drivers[w2s.index] = len(u)
            return walk(params_, u, x, w2s, x_path)

        monkeypatch.setattr(engine_mod, "backward_extend", extend_spy)
        monkeypatch.setattr(engine_mod, "_backward_chunk", chunk_spy)
        monkeypatch.setattr(engine_mod, "_complete", complete_spy)
        monkeypatch.setattr(engine_mod, "_forward_walk", walk_spy)
        got = sample_many(params, n, seed)
        resumed = {i: k for i, k in done_at.items() if k > 0}
        batched, forward = dict(events), dict(drivers)
        events.clear()
        want = per_row(params, n, seed)
        assert_same_rows(got, want)
        steps = want[1]
        assert len(resumed) >= 20
        depth = engine_mod._LOCKSTEP_DEPTH
        if min_active == 16:
            assert set(resumed.values()) == {depth}
        else:
            assert max(resumed.values()) < depth
        for i, k in resumed.items():
            assert forward[i] == steps[i] - k - 1, i
            # the first k per-row steps of run_ciaftp are the lockstep's
            assert events[i][:k] == [1] * k
            assert batched.get(i, []) == events[i][k:], i
        assert any(("chunk", 64) in events[i] for i in resumed)


    @pytest.mark.parametrize("offset", [-1, 0])
    def test_at_the_real_active_floor(self, dickman, offset):
        n = engine_mod._MIN_ACTIVE + offset
        assert_same_rows(sample_many(dickman, n, 63), per_row(dickman, n, 63))

    def test_a_small_batch_draws_no_philox_block(self, dickman, monkeypatch):
        # the whole batch leaves before any block is computed, so short runs
        # such as `sample --n 10` pay nothing for the lockstep
        calls = []

        def spy(*args):
            calls.append(args)
            return philox_block(*args)

        monkeypatch.setattr(engine_mod, "philox_block", spy)
        n = engine_mod._MIN_ACTIVE - 1
        got = sample_many(dickman, n, 64)
        assert not calls
        sample_many(dickman, n + 1, 64)
        assert calls
        assert_same_rows(got, per_row(dickman, n, 64))

    def test_a_small_batch_with_a_zero_start(self, dickman, monkeypatch):
        n, seed = 20, 65
        ZeroedStream, zeroed_block = zeroed({(4, 0)})
        want = per_row(dickman, n, seed, stream_type=ZeroedStream)
        monkeypatch.setattr(engine_mod, "UniformStream", ZeroedStream)
        monkeypatch.setattr(engine_mod, "philox_block", zeroed_block)
        got = sample_many(dickman, n, seed)
        assert_same_rows(got, want)
        assert got[0][4] != per_row(dickman, n, seed)[0][4]


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

    def uniforms(self, n):
        pos = self.position
        u = super().uniforms(n)
        for p in self.zeros:
            if pos <= p < pos + n:
                u[p - pos] = 0.0
        return u


class ArrayStream:
    """Replays a fixed array of uniforms, with the stream interface the
    chunked walk uses (position, uniforms, seek)."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.position = 0

    def next_uniform(self):
        self.position += 1
        return float(self.values[self.position - 1])

    def uniforms(self, n):
        self.position += n
        return self.values[self.position - n : self.position].copy()

    def seek(self, position):
        self.position = position
        return self


def assert_same_run(params, got, want_path, want_x):
    assert got.path.d_states == want_path.d_states
    assert got.path.imputed_u == want_path.imputed_u
    assert got.path.coalesce_index == want_path.coalesce_index == got.steps
    assert got.x_path == want_x
    assert got.value == want_x[-1]
    audit_path(params, got.path)


class TestChunkedBackward:
    """Past the first _SCALAR_STEPS steps, _complete walks in chunks; every
    run must be bit for bit the per-step replay."""

    @pytest.mark.parametrize("beta, seed", [(2.0, 61), (3.0, 62)])
    def test_long_runs_match_the_per_step_replay(self, beta, seed):
        params = make_params(beta)
        long_runs = 0
        for idx in range(24):
            got = run_ciaftp(params, UniformStream(seed, idx), collect_path=True)
            assert_same_run(params, got, *stepwise(params, UniformStream(seed, idx)))
            long_runs += got.steps > engine_mod._SCALAR_STEPS
        assert long_runs >= 8

    @pytest.mark.parametrize(
        "zeros",
        [
            {2 * 100},  # imputation of step 100, inside the first chunk
            {2 * 100 - 1},  # its direction: a valid down-move, no redraw
            {2 * 65, 2 * 300},  # first step of a chunk, and a later chunk
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
        except step t_coal's tiny one.  Step 70 just misses: its U exceeds
        1/(1 + D) by about an ulp, which passes the candidate filter and
        must be rejected by the exact test.
        """
        rng = np.random.default_rng(t_coal)
        u = rng.random(4 * t_coal + 200)  # a chunk may read past T
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

    @pytest.mark.parametrize("budget", [64, 65, 200])
    def test_step_budget_aborts_the_same_rows(self, budget):
        params = make_params(2.0)
        ref = [stepwise(params, UniformStream(64, i))[0].coalesce_index for i in range(40)]
        assert min(ref) <= budget < max(ref)
        self.budget_aborts(2.0, budget, 64, ref)

    @pytest.mark.parametrize("min_active", [512, 16])
    def test_sample_many_past_the_prefix(self, monkeypatch, min_active):
        # all rows on the scalar path, or most resumed from the lockstep
        monkeypatch.setattr(engine_mod, "_MIN_ACTIVE", min_active)
        params = make_params(3.0)
        values, steps, d0s = sample_many(params, 40, 65, first_index=3)
        assert (steps > engine_mod._SCALAR_STEPS).sum() >= 30
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
    """Where x0^beta >= 2 * _SCALAR_STEPS (beta = 3: x0^beta = 3375), the
    walk chunks from step 0, the first chunk x0^beta // 2 = 1687 steps."""

    @pytest.mark.parametrize(
        "beta, scalar_steps, sizes",
        [
            (1.0, 64, [64, 128, 256]),  # x0^beta = 5: the 64-step prefix, then doubling
            (2.0, 64, [64, 128, 256]),  # x0^beta = 100 < 2 * 64
            (3.0, 0, [1687, 1687, 3374, 4096]),
        ],
    )
    def test_chunk_sizes(self, beta, scalar_steps, sizes, monkeypatch):
        params = make_params(beta)
        t_coal = scalar_steps + sum(sizes[:-1]) + 1
        u = TestChunkedBackward.coalescing_at(params, t_coal)
        single, chunks = [], []
        extend, chunk = engine_mod.backward_extend, engine_mod._backward_chunk
        monkeypatch.setattr(
            engine_mod, "backward_extend", lambda *a: single.append(1) or extend(*a)
        )
        monkeypatch.setattr(
            engine_mod, "_backward_chunk", lambda *a: chunks.append(a[-1]) or chunk(*a)
        )
        assert run_ciaftp(params, ArrayStream(u)).steps == t_coal
        assert len(single) == scalar_steps
        assert chunks == sizes

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

    def test_branch_matches_the_predicate(self, dickman):
        rng = np.random.default_rng(67)
        xs = [0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, math.nextafter(3.0, 0.0), 7.25, 1e6]
        xs += (rng.random(300) * 30.0).tolist()
        branches = set()
        for x in xs:
            thr = 1.0 / (1.0 + x)
            for w1 in (math.nextafter(thr, 0.0), thr, math.nextafter(thr, 1.0)):
                # beta = 1: the driver u is w1 itself, as u ** 1.0 == u
                got = engine_mod._forward_walk(dickman, [w1], x, _ZeroStream())
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
        values, steps, _ = sample_many(params, 4, 68)
        for i in range(4):
            path, x_path = stepwise(params, UniformStream(68, i))
            assert steps[i] == path.coalesce_index
            assert values[i] != x_path[-1]
