import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def corrupt_model_row(monkeypatch):
    """Make the composed-model gradcheck report a failure for one parameter.

    Wraps `gradcheck.composed_model_suite` so the named row's error exceeds
    any tolerance; every other row is the real result.
    """
    from respden import gradcheck

    def install(name: str) -> None:
        real = gradcheck.composed_model_suite

        def suite(seed=0, max_entries=8):
            rows = real(seed, max_entries)
            assert name in [r.name for r in rows], f"no composed-model row '{name}'"
            return [gradcheck.CheckRow(r.name, r.max_rel_err + 1.0, r.n_checked, r.tol)
                    if r.name == name else r for r in rows]

        monkeypatch.setattr(gradcheck, "composed_model_suite", suite)

    return install


@pytest.fixture
def run_with_blas_threads():
    """Run a script in a fresh interpreter capped at `threads` BLAS threads.

    Returns the JSON value on the last line the script prints.
    """
    import respden

    src = os.path.dirname(os.path.dirname(os.path.abspath(respden.__file__)))

    def run(script: str, threads: int):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads),
               "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    return run
