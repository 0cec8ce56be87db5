"""Workload inputs are a function of the seed."""

import json

from harness import inputs


def _digest(workload, seed):
    return inputs.generate(workload, inputs.scale_for("tiny", seed)).digest()


def test_same_seed_same_inputs():
    assert _digest("hybrid-insider", 5) == _digest("hybrid-insider", 5)


def test_seed_changes_every_workload_input():
    for workload in inputs.WORKLOADS:
        assert _digest(workload, 5) != _digest(workload, 6), workload


def test_cache_round_trip(tmp_path):
    scale = inputs.scale_for("tiny", 3)
    trace = inputs.generate("offline-fig5", scale)
    path = inputs.cache_path(tmp_path, "offline-fig5", "tiny", 3)
    inputs.save(trace, path)
    loaded = inputs.load(path)
    assert loaded.digest() == trace.digest()
    assert loaded.protected.networks == trace.protected.networks
    assert json.loads(path.with_suffix(".json").read_text())["digest"] == \
        trace.digest()
    assert not list(tmp_path.glob("*tmp*"))
