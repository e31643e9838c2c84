import ctypes
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest
import scipy

from rpmix import _blas, cli, experiments
from rpmix._blas import openblas_controls, single_blas_thread
from rpmix.experiments import fig3_body

needs_openblas = pytest.mark.skipif(
    not openblas_controls(), reason="no OpenBLAS mapped into this process"
)


def thread_counts():
    return [get() for get, _ in openblas_controls()]


@single_blas_thread()
def counts_in_scope():
    return thread_counts()


@pytest.fixture
def two_threads():
    """Every OpenBLAS at 2 threads for the test; the original counts after."""
    original = thread_counts()
    for _, set_ in openblas_controls():
        set_(2)
    yield
    for (_, set_), count in zip(openblas_controls(), original):
        set_(count)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc")
def test_finds_the_openblas_bundled_with_numpy_and_scipy():
    bundled = {
        path.resolve()
        for pkg in (numpy, scipy)
        for path in (Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs").glob("*openblas*")
    }
    mapped = {Path(p).resolve() for p in _blas._mapped_openblas_paths()}
    assert bundled <= mapped
    assert len(openblas_controls()) >= len(bundled)


# Where there is no /proc or no OpenBLAS (macOS, another BLAS).
def test_no_maps_file_maps_no_openblas(monkeypatch):
    def unreadable(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", "/proc/self/maps")

    monkeypatch.setattr(_blas, "open", unreadable, raising=False)
    assert _blas._mapped_openblas_paths() == []


def test_library_without_the_thread_symbols_is_skipped(monkeypatch):
    def get_num_threads():
        return 1

    def set_num_threads(n):
        pass

    def get_corename():
        return b"Haswell"

    libs = {
        "libopenblas-bare.so": SimpleNamespace(),
        "libopenblas-full.so": SimpleNamespace(openblas_get_num_threads64_=get_num_threads,
                                               openblas_set_num_threads64_=set_num_threads,
                                               scipy_openblas_get_corename64_=get_corename),
    }
    monkeypatch.setattr(_blas, "_mapped_openblas_paths", lambda: sorted(libs))
    monkeypatch.setattr(_blas, "ctypes", SimpleNamespace(CDLL=libs.__getitem__, c_int=ctypes.c_int,
                                                         c_char_p=ctypes.c_char_p))
    assert _blas.openblas_controls.__wrapped__() == ((get_num_threads, set_num_threads),)
    assert _blas.openblas_kernels() == ["Haswell"]


def test_no_openblas_scope_changes_nothing(monkeypatch, two_threads):
    before = thread_counts()
    monkeypatch.setattr(_blas, "openblas_controls", lambda: ())
    monkeypatch.setattr(_blas, "_mapped_openblas_paths", lambda: [])
    with single_blas_thread():
        assert thread_counts() == before
    assert thread_counts() == before
    assert _blas.environment()["openblas_threads"] == []
    assert _blas.environment()["openblas_kernels"] == []


@needs_openblas
def test_environment_names_the_kernel_openblas_was_made_to_use():
    # DYNAMIC_ARCH picks a kernel per CPU at load time; OPENBLAS_CORETYPE
    # forces one, so the name read back must be the one forced.
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(Path(_blas.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import json; from rpmix._blas import environment; "
                               "print(json.dumps(environment()['openblas_kernels']))"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert json.loads(out) == ["Haswell"] * len(openblas_controls())


@needs_openblas
def test_body_runs_on_one_thread_and_restores(monkeypatch, two_threads):
    seen = []
    separation = experiments.mixture_separation

    def recording(mix):
        seen.append(thread_counts())
        return separation(mix)

    monkeypatch.setattr(experiments, "mixture_separation", recording)
    # threads=1 keeps the trials in this process, where `seen` is recorded.
    fig3_body(0, trials=2, n_values=(50,), threads=1)
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert thread_counts() == [2] * len(seen[0])


@needs_openblas
def test_counts_restored_when_the_body_raises(monkeypatch, two_threads):
    def failing(mix):
        raise RuntimeError("inside the body")

    monkeypatch.setattr(experiments, "mixture_separation", failing)
    with pytest.raises(RuntimeError, match="inside the body"):
        fig3_body(0, trials=1, n_values=(50,))
    assert thread_counts() == [2] * len(openblas_controls())


@needs_openblas
def test_nested_scopes_restore_the_outer_value(two_threads):
    ones = [1] * len(openblas_controls())
    with single_blas_thread():
        assert thread_counts() == ones
        for _, set_ in openblas_controls():
            set_(3)
        with single_blas_thread():
            assert thread_counts() == ones
        assert thread_counts() == [3] * len(ones)
    assert thread_counts() == [2] * len(ones)


def test_nothing_found_runs_the_body_unchanged(monkeypatch):
    expected = fig3_body(4, trials=3, n_values=(50,))
    monkeypatch.setattr(_blas, "openblas_controls", lambda: ())
    assert fig3_body(4, trials=3, n_values=(50,)) == expected


@needs_openblas
@pytest.mark.parametrize("threads", [1, 2])
def test_trials_run_on_one_thread(monkeypatch, two_threads, threads):
    # Serial trials run inside the body's scope, and pool workers are forked
    # inside it; each trial records the largest count it sees.
    monkeypatch.setattr(experiments, "surrogate_digit_data", lambda seed: (SimpleNamespace(dim=20), None))
    monkeypatch.setattr(experiments, "train", lambda data, proj, **kw: None)
    monkeypatch.setattr(experiments, "evaluate", lambda model, test: float(max(thread_counts())))
    report = experiments.fig9_body(0, trials=2, d_values=(20,), threads=threads)
    assert [row["accuracy"] for row in report.rows] == [1.0, 1.0]
    assert thread_counts() == [2] * len(openblas_controls())


# experiment -> keyword arguments of a small run of its body.
SMALL_RUNS = {
    "fig3-sep-vs-n": dict(trials=2, n_values=(50,)),
    "fig4-sep-vs-k": dict(trials=2, k_values=(3,), n=20),
    "fig5-ecc-table": dict(trials=2, E_values=(50,), n_values=(25,)),
    "fig6-ecc-vs-d": dict(trials=2, n=20, E=100.0, d_values=(10,)),
    "fig7-pca-vs-rp": dict(trials=2, n=40, k=3, d=5, samples=200),
    "fig8-em-compare": dict(trials=2, n_values=(20,), k=2, d=3, train_size=200, test_size=50),
    "second-em-compare": dict(trials=2, n=30),
    "fig9-digit-sweep": dict(trials=1, d_values=(20,)),
    "pca-collapse": dict(k=4, samples=200),
}


@needs_openblas
@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_body_report_does_not_follow_the_callers_threads(monkeypatch, two_threads, name):
    # The direct route, as the library is called: trials in their default
    # worker pool, the caller on two threads. Each trial also records the
    # largest count it sees, since at these sizes a report may not show one.
    body, _ = experiments.EXPERIMENTS[name]
    with single_blas_thread():
        single = body(0, **SMALL_RUNS[name])
    seen, run_trials = [], experiments._run_trials

    def recording(worker, tasks, threads=None, shared=()):
        def counted(task, *shared):
            return max(thread_counts()), worker(task, *shared)

        pairs = run_trials(counted, tasks, threads, shared)
        seen.extend(count for count, _ in pairs)
        return [result for _, result in pairs]

    monkeypatch.setattr(experiments, "_run_trials", recording)
    assert body(0, **SMALL_RUNS[name]) == single
    assert seen and set(seen) == {1}
    assert thread_counts() == [2] * len(openblas_controls())


@needs_openblas
def test_surrogate_data_depend_only_on_the_seed(two_threads):
    # At n = 256 its covariance products are large enough to use threads.
    threaded = experiments.surrogate_digit_data(0)
    with single_blas_thread():
        single = experiments.surrogate_digit_data(0)
    for a, b in zip(threaded, single):
        assert numpy.array_equal(a.points, b.points)
        assert numpy.array_equal(a.labels, b.labels)


@pytest.mark.slow
@needs_openblas
def test_spawned_worker_runs_on_one_thread():
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        counts = pool.submit(counts_in_scope).result(timeout=120)
    assert counts and counts == [1] * len(counts)


@needs_openblas
def test_cli_command_runs_on_one_thread(monkeypatch, two_threads):
    seen = []
    monkeypatch.setattr(cli, "_cmd_synth", lambda args: seen.append(thread_counts()) or ([], []))
    code = cli.main(["synth", "--n", "3", "--k", "2", "--c", "1", "--out", "unused.json"])
    assert code == 0
    assert seen == [[1] * len(openblas_controls())]
    assert thread_counts() == [2] * len(openblas_controls())


def test_scope_leaves_a_library_on_one_thread_alone(monkeypatch):
    calls = []
    counts = {"a": 1, "b": 4}

    def control(name):
        return (lambda: counts[name]), (lambda n: calls.append((name, n)))

    monkeypatch.setattr(_blas, "openblas_controls", lambda: (control("a"), control("b")))
    with single_blas_thread():
        assert calls == [("b", 1)]
    assert calls == [("b", 1), ("b", 4)]


def _worker_thread_count():
    experiments._em_trial(30, 0, {"k": 2, "d": 5, "train_size": 200, "test_size": 50})
    return len(os.listdir("/proc/self/task"))


@needs_openblas
@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="no /proc")
def test_forked_worker_starts_no_blas_threads():
    # OpenBLAS stops its threads at fork and starts them again on the next
    # set_num_threads; a worker forked inside a scope must not make that call.
    with single_blas_thread():
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            assert pool.submit(_worker_thread_count).result(timeout=120) == 1
