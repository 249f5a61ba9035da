import os
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
