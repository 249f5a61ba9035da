"""The benchmark tracer's contract with the library it wraps.

`perfbench/tracer.py` swaps module and class attributes by name; a
refactor that renames or moves one of them must fail here rather than
inside a benchmark run.
"""

import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists(tracer_module):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer_module.SPANS if attr not in vars(owner)]
    assert missing == []


def test_install_then_uninstall_restores_identical_objects(tracer_module):
    Tensor = tracer_module.Tensor
    targets = [(owner, attr) for owner, attr, _ in tracer_module.SPANS]
    targets += [(Tensor, "_from_op"), (tracer_module.datasets, "read_wav")]
    before = {(owner, attr): vars(owner)[attr] for owner, attr in targets}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        replaced = [key for key, obj in before.items() if vars(key[0])[key[1]] is not obj]
    finally:
        tracer.uninstall()
    assert len(replaced) == len(before)
    for (owner, attr), obj in before.items():
        assert vars(owner)[attr] is obj, f"{attr} not restored"
