"""The benchmark's contract with the library it runs.

`perfbench/tracer.py` swaps module and class attributes by name, and
`perfbench/workloads.py` calls the library the way the CLI does; a
refactor that renames, moves or re-signs one of them must fail here rather
than inside a benchmark run.
"""

import dataclasses
import importlib.util
import os
import sys
from unittest import mock

import pytest

from respden.config import RunConfig

PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")
with mock.patch.dict(os.environ):  # run.py pins BLAS threads in the environment at import
    bench = load_perfbench("run")


@pytest.fixture(scope="module")
def tracer_module():
    return load_perfbench("tracer")


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


class StubCalibrator:
    """Takes no machine-speed samples: this run checks calls, not timings."""

    def tick(self) -> None:
        pass


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failed_operations(name, tmp_path):
    # the shrunken self-test size, with the fewest operations the loop allows
    workload = workloads.WORKLOADS[name](seed=0, minimal=True, workdir=str(tmp_path))
    workload.setup()
    stats = workload.run(0.0, None, StubCalibrator())
    assert stats.errors == []
    assert stats.failed == 0 and stats.attempted > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_workload_builds(name, tmp_path):
    # the benchmark's own size, constructors only: a config that RunConfig
    # rejects when built fails here rather than inside a benchmark run
    workloads.WORKLOADS[name](seed=0, minimal=False, workdir=str(tmp_path))


def test_full_size_model_config_builds():
    assert workloads.model_config(0, False) == RunConfig(seed=0, epochs=1)


def test_reference_gates_pass(tmp_path):
    # the gates each workload checks after its timed loop, against reference.json
    # at the benchmark's own tolerances: step losses, held-out logits, WAV features
    assert workloads.check_reference("train", workloads.golden_train(), workloads.LOSS_RTOL) == []
    assert workloads.check_reference("eval", workloads.golden_eval(), workloads.LOGIT_RTOL) == []
    assert workloads.check_reference("ingest", workloads.golden_ingest(str(tmp_path)),
                                     workloads.FEATURE_RTOL) == []


@pytest.mark.parametrize("name", ["train-synth", "eval-heldout"])
def test_traced_graph_node_counts(name, tracer_module, tmp_path):
    # the self-test size at the default depth of 4 blocks: a scored clip is the
    # filter, patch embedding, 2 nodes per block and the final layer norm; a
    # training sample adds the heads + loss node.  Evaluation nodes made
    # outside the `model.predict` span would count as step nodes.
    workload = workloads.WORKLOADS[name](seed=0, minimal=True, workdir=str(tmp_path))
    workload.cfg = dataclasses.replace(workload.cfg, layers=RunConfig().layers)
    workload.setup()
    tracer = tracer_module.Tracer()
    stats = workload.run(0.0, tracer, StubCalibrator())
    assert stats.errors == []
    metrics, detail, mismatched = bench.layer_metrics(tracer, stats)
    assert mismatched == []
    assert metrics["tensor.ops_per_clip"] == 11
    # the six spans set on `freq_filter` wrap the fused filter's own forward stages,
    # which it calls once each
    stages = [span for owner, _, span in tracer_module.SPANS if owner is tracer_module.freq_filter]
    calls = {span: detail["spans"].get(span, {}).get("calls", 0) for span in stages}
    filters = detail["spans"]["freq_filter.filter_forward"]["calls"]
    assert len(stages) == 6 and filters > 0 and calls == dict.fromkeys(stages, filters)
    if name == "train-synth":
        cfg = workload.cfg
        steps = -(-workload.n_train // cfg.batch) * cfg.epochs
        assert metrics["tensor.ops_per_step"] == 12 * workload.n_train * cfg.epochs / steps
