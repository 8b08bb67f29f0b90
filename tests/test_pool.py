"""The fork pool: ``_pool.map`` gives every item's result, or the exception
its call raised, in item order, whatever the worker count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddmtest
from ddmtest import _pool

weight_lists = st.lists(st.integers(0, 3) | st.integers(0, 10**6),
                        max_size=12)
cpu_counts = st.integers(1, 4)


def pooled_map(func, weights, cpus, name=lambda i: f"item {i}"):
    """``_pool.map`` with ``cpus`` usable CPUs, and the pids it forked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "_usable_cpus", lambda: cpus)
        pids, fork = [], os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        mp.setattr(os, "fork", spy)
        return _pool.map(func, weights, _pool.workers(len(weights)),
                         name), pids


def shares(weights, cpus):
    return _pool.deal(weights, max(1, min(cpus, len(weights))))


def plain(result):
    """A result comparable across processes: an exception as its type and
    arguments."""
    if isinstance(result, Exception):
        return type(result), result.args
    return result


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestMap:
    @given(weight_lists, cpu_counts)
    @settings(max_examples=30, deadline=None)
    def test_results_equal_one_worker(self, weights, cpus):
        def func(i):
            return i, weights[i]

        results, pids = pooled_map(func, weights, cpus)
        assert results == [func(i) for i in range(len(weights))]
        assert len(pids) == max(1, min(cpus, len(weights))) - 1
        assert_reaped(pids)

    @given(weight_lists, st.sets(st.integers(0, 11)), cpu_counts)
    @settings(max_examples=30, deadline=None)
    def test_item_that_raises_ends_its_share(self, weights, failing, cpus):
        """The first item of a share that raises gives its exception to
        itself and to each later item of the share."""
        def func(i):
            if i in failing:
                raise ValueError(i)
            return i

        expected = {}
        for share in shares(weights, cpus):
            error = None
            for i in share:
                if error is None and i in failing:
                    error = (ValueError, (i,))
                expected[i] = error or i
        results, pids = pooled_map(func, weights, cpus)
        assert list(map(plain, results)) == [
            expected[i] for i in range(len(weights))]
        assert_reaped(pids)

    @given(weight_lists, st.sets(st.integers(0, 11)), cpu_counts)
    @settings(max_examples=30, deadline=None)
    def test_child_that_exits_fails_its_share(self, weights, dying, cpus):
        """A child that exits before sending its results gives each item of
        its share an error that names the share's first item."""
        parent = os.getpid()

        def func(i):
            if os.getpid() != parent and i in dying:
                os._exit(3)
            return i

        expected = list(range(len(weights)))
        for share in shares(weights, cpus)[1:]:    # the children's
            if dying.intersection(share):
                for i in share:
                    expected[i] = (ChildProcessError, (
                        f"the worker item {share[0]} died before sending "
                        "its results (exit status 3)",))
        results, pids = pooled_map(func, weights, cpus)
        assert list(map(plain, results)) == expected
        assert_reaped(pids)

    def test_one_share_imports_no_pickle(self):
        """A one-share run forks nothing and imports no pickle; a two-share
        run imports it."""
        code = """if True:
            import os, sys
            from ddmtest import _pool
            forks, fork = [], os.fork
            os.fork = lambda: forks.append(1) or fork()
            before = set(sys.modules)
            for cpus in (1, 2):
                _pool._usable_cpus = lambda: cpus
                _pool.map(str, [3, 1, 2], _pool.workers(3), str)
                print(len(forks), "pickle" in set(sys.modules) - before)
            """
        env = dict(os.environ, PYTHONPATH=str(
            Path(ddmtest.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True, env=env,
                                timeout=120)
        assert result.stdout == "0 False\n1 True\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs a listing of open file descriptors")
    @pytest.mark.parametrize("end", ["return", "child exits", "interrupt"])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_open_fds_are_unchanged(self, end, cpus):
        """The call leaves this process's open file descriptors as it found
        them, also when a child dies or this process is interrupted."""
        parent = os.getpid()

        def func(i):
            if os.getpid() == parent and end == "interrupt":
                raise KeyboardInterrupt
            if os.getpid() != parent and end == "child exits":
                os._exit(3)
            return i

        before = sorted(os.listdir("/proc/self/fd"))
        try:
            pooled_map(func, [5, 4, 3, 2, 1], cpus)
        except KeyboardInterrupt:
            assert end == "interrupt"
        else:
            assert end != "interrupt"
        assert sorted(os.listdir("/proc/self/fd")) == before
