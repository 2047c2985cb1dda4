"""What keeps one query's observers from another's.

`obs.collect`, `governor.govern` and `accsan.sanitize` bind per-query
state, and that state lives in one per-context record
(:mod:`repro._exec`): a second thread or asyncio task activating its own
collector, governor or sanitizer neither sees nor disturbs the first —
there is nothing to guard.  The fault plan is the one binding that stays
process-wide (one thread arms it, every thread fires it), so it alone
keeps a single-owner check that turns a second thread's activation into
a structured :class:`~repro.errors.ReentrantActivationError`.
"""

import asyncio
import multiprocessing
import threading

import pytest

from repro import _exec
from repro.errors import ReentrantActivationError, ReproError
from repro.governor.faults import _Owner as ActivationState


def _in_thread(fn):
    """Run ``fn`` on a fresh thread; return its result or re-raise."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            box["error"] = exc

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout=30)
    assert not t.is_alive()
    if "error" in box:
        raise box["error"]
    return box.get("value")


class TestActivationState:
    """The fault plan's single-owner bookkeeping."""

    def test_same_thread_nests(self):
        state = ActivationState()
        state.acquire()
        state.acquire()
        state.release()
        state.release()
        assert state.owner is None

    def test_foreign_thread_raises(self):
        state = ActivationState()
        state.acquire()
        with pytest.raises(ReentrantActivationError) as caught:
            _in_thread(state.acquire)
        state.release()
        exc = caught.value
        assert exc.subsystem == "governor.faults"
        assert exc.owner_thread != exc.thread
        assert isinstance(exc, ReproError)

    def test_release_after_exit_frees_ownership(self):
        state = ActivationState()
        state.acquire()
        state.release()

        def other():
            state.acquire()
            owner = state.owner
            state.release()
            return owner

        assert _in_thread(other)  # the other thread acquired cleanly

    def test_reset_clears_foreign_ownership(self):
        # A forked worker inherits the parent's guard state; reset()
        # must make the (new) process usable again.
        state = ActivationState()
        state.acquire()
        state.reset()
        assert state.owner is None
        state.acquire()
        state.release()


def _assert_isolated(enter_scope, field):
    """Enter a scope on this thread, then prove a second thread starts
    unbound, binds its own value without raising, and leaves this
    thread's binding exactly as it was."""
    with enter_scope() as mine:
        assert getattr(_exec.current(), field) is mine

        def other():
            assert _exec.current() is _exec.NULL
            with enter_scope() as theirs:
                assert getattr(_exec.current(), field) is theirs
                return theirs

        theirs = _in_thread(other)
        assert theirs is None or theirs is not mine
        assert getattr(_exec.current(), field) is mine
    assert _exec.current() is _exec.NULL


class TestSubsystemGuards:
    def test_obs_collect(self):
        from repro.obs.metrics import collect

        _assert_isolated(collect, "col")

    def test_governor_govern(self):
        from repro.governor import ExecutionGovernor, govern

        _assert_isolated(lambda: govern(ExecutionGovernor()), "gov")

    def test_governor_shield_also_guarded(self):
        """govern(None) — the nested-shield form — in another thread
        does not unshield, or ungovern, this one."""
        from repro.governor import ExecutionGovernor, active, govern

        gov = ExecutionGovernor()
        with govern(gov):
            def other():
                with govern(None):
                    return active()

            assert _in_thread(other) is None
            assert active() is gov

    def test_accsan_sanitize(self):
        from repro.accsan import sanitize

        _assert_isolated(sanitize, "san")

    def test_fault_plan(self):
        from repro.governor.faults import FaultPlan, inject_faults

        with inject_faults(FaultPlan(seed=1)):
            with pytest.raises(ReentrantActivationError) as caught:
                _in_thread(inject_faults(FaultPlan(seed=2)).__enter__)
        assert caught.value.subsystem == "governor.faults"
        # After the scope unwinds, activation works again on any thread.
        def later():
            with inject_faults(FaultPlan(seed=3)):
                pass

        _in_thread(later)

    def test_same_thread_nesting_still_works(self):
        from repro.obs.metrics import Collector, active, collect

        outer, inner = Collector(), Collector()
        with collect(outer):
            with collect(inner):
                assert active() is inner
            assert active() is outer
            outer.count("after.nest")
        assert active() is None
        assert outer.counters["after.nest"] == 1

    def test_error_message_names_the_remedy(self):
        state = ActivationState()
        state.acquire()
        try:
            with pytest.raises(ReentrantActivationError) as caught:
                _in_thread(state.acquire)
        finally:
            state.release()
        assert "worker process" in str(caught.value)

    def test_guard_failure_does_not_corrupt_binding(self):
        """A refused activation leaves the armed plan untouched."""
        from repro.governor import faults

        mine = faults.FaultPlan(seed=1)
        with faults.inject_faults(mine):
            with pytest.raises(ReentrantActivationError):
                _in_thread(faults.inject_faults(faults.FaultPlan()).__enter__)
            assert faults.active() is mine
            _in_thread(lambda: faults.fire("sdmc.level"))  # fires anywhere
        assert mine.hit_count("sdmc.level") == 1
        assert faults.active() is None


class TestContextIsolation:
    """Two queries at once each charge only their own observers."""

    @staticmethod
    def _governed_count(label, barrier):
        """Bind a collector and a governor, meet the other party while
        both are live, then charge under this party's own name."""
        from repro.governor import ExecutionGovernor, active as gov_active, govern
        from repro.obs.metrics import active as col_active, collect

        gov = ExecutionGovernor()
        with collect() as col, govern(gov):
            barrier()
            assert col_active() is col and gov_active() is gov
            col_active().count(label)
            gov_active().charge_acc_executions(len(label))
            barrier()
            assert col_active() is col and gov_active() is gov
        return col.counters, gov.acc_executions

    def test_two_threads_see_only_their_own(self):
        barrier = threading.Barrier(2, timeout=10)
        results = {}

        def party(label):
            results[label] = self._governed_count(label, barrier.wait)

        threads = [
            threading.Thread(target=party, args=(label,))
            for label in ("a", "bbb")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == {"a": ({"a": 1}, 1), "bbb": ({"bbb": 1}, 3)}
        assert _exec.current() is _exec.NULL

    def test_two_asyncio_tasks_see_only_their_own(self):
        async def party(label, arrived, other):
            from repro.governor import ExecutionGovernor, active as gov_active, govern
            from repro.obs.metrics import active as col_active, collect

            gov = ExecutionGovernor()
            with collect() as col, govern(gov):
                arrived.set()
                await other.wait()  # both scopes are live from here on
                await asyncio.sleep(0)
                assert col_active() is col and gov_active() is gov
                col_active().count(label)
                gov_active().charge_acc_executions(len(label))
            return col.counters, gov.acc_executions

        async def main():
            a, b = asyncio.Event(), asyncio.Event()
            return await asyncio.gather(party("a", a, b), party("bbb", b, a))

        assert asyncio.run(main()) == [({"a": 1}, 1), ({"bbb": 1}, 3)]
        assert _exec.current() is _exec.NULL

    def test_nesting_shadows_one_field_and_restores(self):
        from repro.accsan import sanitize
        from repro.governor import ExecutionGovernor, govern
        from repro.obs.metrics import collect

        gov = ExecutionGovernor()
        with collect() as col:
            with govern(gov):
                with sanitize() as san:
                    assert _exec.current() == _exec.ExecCtx(col, gov, san)
                    with collect() as inner, govern(None):
                        assert _exec.current() == _exec.ExecCtx(inner, None, san)
                    assert _exec.current() == _exec.ExecCtx(col, gov, san)
                assert _exec.current() == _exec.ExecCtx(col, gov, None)
            assert _exec.current() == _exec.ExecCtx(col, None, None)
        assert _exec.current() is _exec.NULL

    def test_an_escaping_exception_restores(self):
        from repro.obs.metrics import collect

        with pytest.raises(KeyError):
            with collect():
                raise KeyError("boom")
        assert _exec.current() is _exec.NULL

    def test_the_record_is_immutable(self):
        with pytest.raises(AttributeError):
            _exec.NULL.col = object()

    def test_fork_inside_an_active_scope_starts_the_worker_unbound(self):
        """A pool worker forked while the forking thread has observers
        bound (and a fault plan armed) starts from a clean engine."""
        from repro.accsan import sanitize
        from repro.governor import ExecutionGovernor, faults, govern
        from repro.obs.metrics import collect
        from repro.server.pool import _reset_worker_globals

        def child(conn):
            inherited = _exec.current() is not _exec.NULL
            armed = faults.active() is not None
            _reset_worker_globals()
            with faults.inject_faults(faults.FaultPlan()):
                pass  # the parent thread's ownership did not survive
            conn.send((inherited, armed, _exec.current() is _exec.NULL,
                       faults.active() is None))
            conn.close()

        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe()
        with collect(), govern(ExecutionGovernor()), sanitize():
            with faults.inject_faults(faults.FaultPlan(seed=1)):
                proc = ctx.Process(target=child, args=(child_end,))
                proc.start()
        child_end.close()
        assert parent_end.poll(10)
        assert parent_end.recv() == (True, True, True, True)
        proc.join(10)
        assert proc.exitcode == 0
