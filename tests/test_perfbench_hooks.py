"""The benchmark's tracer (perfbench/spans.py) wraps package functions by name.

`Tracer.installed()` reads each hook with `vars(owner)[name]`, so a hook
that is only reachable through an import chain, or gone, crashes a traced
run.  This checks every hook against the package as it is.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_hook_is_an_attribute_of_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "measure"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    spans = importlib.import_module("spans")
    assert spans.TRACED
    for module_name, attr, span in spans.TRACED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert leaf in vars(owner), f"{module_name}.{attr} (span {span})"
        assert callable(vars(owner)[leaf]), f"{module_name}.{attr}"


# method -> (owner module, the loss hook its table entry must call, problem)
_LOSS_HOOKS = {
    "ldgm": ("ldgm.trainer", "ldgm_loss", ("beam", {})),
    "dgm": ("ldgm.trainer", "dgm_loss", ("beam", {})),
    "ldrm": ("ldgm.ritz", "ldrm_loss", ("bilaplacian_ritz", {"d": 1})),
    "drm": ("ldgm.ritz", "drm_loss", ("bilaplacian_ritz", {"d": 1})),
}


def test_every_method_reaches_its_traced_loss_hook(monkeypatch):
    """A method routed past its hook would leave that loss span empty in a traced run."""
    from ldgm.ritz import RitzConfig
    from ldgm.sampling import SamplerConfig
    from ldgm.system import get_problem
    from ldgm.trainer import METHODS, TrainConfig, default_network_config, train

    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "measure"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    traced = {(module, attr) for module, attr, _ in importlib.import_module("spans").TRACED}
    assert set(_LOSS_HOOKS) == set(METHODS)

    calls = {}
    for module_name, attr, _ in _LOSS_HOOKS.values():
        assert (module_name, attr) in traced, f"{module_name}.{attr} is not traced"
        owner = importlib.import_module(module_name)
        hook = getattr(owner, attr)

        def counted(*args, _hook=hook, _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _hook(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for method, (_, attr, (problem, kwargs)) in _LOSS_HOOKS.items():
        calls.clear()
        spec = get_problem(problem, **kwargs)
        sampler = (RitzConfig(interior=6, boundary=4).sampler() if METHODS[method].variational
                   else SamplerConfig(interior=6, initial=4, boundary=4))
        train(spec, method, default_network_config(spec, method, hidden_layers=1, width=4),
              sampler, TrainConfig(stages=2, steps_per_stage=2), seed=0)
        assert calls == {attr: 2}, method


def test_benchmark_gate_passes_on_every_workload(monkeypatch):
    """The benchmark's correctness gate calls the losses directly, outside `train`."""
    from ldgm.config import ExperimentConfig

    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("gate", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    gate = importlib.import_module("gate")
    workloads = importlib.import_module("workloads")
    for name, w in workloads.WORKLOADS.items():
        cfg = ExperimentConfig.from_text(workloads.config_text(ROOT, w, 7))
        ok, detail = gate.gradient_check(cfg, cfg.seeds[0])
        assert ok, f"{name}: {detail}"
    ok, detail = gate.annihilation_check()
    assert ok, detail


def test_every_step_calls_the_traced_backward_on_its_stage_tape(monkeypatch):
    """The tracer reads the tape from `trainer.backward`'s first call of a run and
    opens a step at `bind`; every step of a stage sweeps that stage's one tape."""
    from ldgm import trainer
    from ldgm.sampling import SamplerConfig
    from ldgm.system import get_problem

    events = []
    real_backward, real_adam = trainer.backward, trainer.adam_step

    def backward(tape, output, *args, **kwargs):
        events.append(("backward", tape))
        return real_backward(tape, output, *args, **kwargs)

    def adam_step(*args, **kwargs):
        events.append(("adam", None))
        return real_adam(*args, **kwargs)

    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "adam_step", adam_step)
    spec = get_problem("beam")
    trainer.train(spec, "ldgm", trainer.default_network_config(spec, "ldgm", hidden_layers=1,
                                                               width=4),
                  SamplerConfig(interior=6, initial=4, boundary=4),
                  trainer.TrainConfig(stages=2, steps_per_stage=3), seed=0)
    assert [kind for kind, _ in events] == ["backward", "adam"] * 6
    tapes = [tape for kind, tape in events if kind == "backward"]
    assert all(t is tapes[0] for t in tapes[:3])
    assert all(t is tapes[3] for t in tapes[3:])
    assert tapes[0] is not tapes[3]


def test_every_logged_row_calls_the_traced_metric_hook_with_its_grid(monkeypatch):
    """The tracer times `metrics.network_relative_l2` and reads the grid's size
    from its second positional argument."""
    from ldgm import metrics
    from ldgm.sampling import SamplerConfig
    from ldgm.system import get_problem
    from ldgm.trainer import TrainConfig, default_network_config, train

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    traced = {(module, attr) for module, attr, _ in importlib.import_module("spans").TRACED}
    assert ("ldgm.metrics", "network_relative_l2") in traced

    points = []
    real = metrics.network_relative_l2

    def counted(*args, **kwargs):
        points.append(args[1].x.shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "network_relative_l2", counted)
    spec = get_problem("beam")
    report, _ = train(spec, "ldgm", default_network_config(spec, "ldgm", hidden_layers=1, width=4),
                      SamplerConfig(interior=6, initial=4, boundary=4),
                      TrainConfig(stages=3, steps_per_stage=2, log_every=2), seed=0)
    assert len(report.rows) == 2
    assert points == [metrics.evaluation_grid(spec).x.shape[0]] * 2


def test_every_node_of_the_recorded_heat5d_step_reaches_the_loss(monkeypatch):
    """Every replay reruns every node, so a node J_total does not read is wasted work."""
    from ldgm.autodiff import Tape
    from ldgm.config import ExperimentConfig
    from ldgm.network import Network, init_xavier
    from ldgm.sampling import draw_batch
    from ldgm.trainer import method_entry

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "measure", raising=False)
    measure = importlib.import_module("measure")
    cfg = ExperimentConfig.from_text((ROOT / "configs" / "heat5d.cfg").read_text())
    spec = cfg.problem()
    net = Network(cfg.network(spec), init_xavier(cfg.network(spec), 7))
    tape = Tape()
    lb = method_entry("ldgm", spec).loss(spec, cfg.ritz())(net.bind(tape),
                                                            draw_batch(cfg.sampler(), spec, 0))
    assert len(tape.nodes) == 84
    assert all(measure.live_mask(tape.nodes, lb.J_total.idx))
