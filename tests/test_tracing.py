"""The benchmark's per-layer metrics still find the clroute functions they time.

``perfbench/tracing.py`` wraps clroute functions by name and reads some of
their arguments, so a rename, a dropped function or a moved argument
quietly turns a per-layer metric into 0. The tracer is loaded from its
file, as the benchmark loads it, and installed on the package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import clroute
import clroute.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Names the tracer lists that no clroute function has carried since
# refactors renamed or removed them; each reads as an absent layer.
STALE = {
    "shp.remove_dummy",
    "loss.closed_form_forgetting_under",
    "loss.closed_form_forgetting_over",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_sees_every_layer(tmp_path, capsys):
    tracing = _load_tracing()
    path = str(tmp_path / "t10.json")
    argvs = [["gen", "--t", "10", "--out", path]]
    argvs += [["plan", path, "--strategy", s] for s in ("alg1", "exact", "forgetting", "random")]
    argvs.append(["verify", "--trials", "200"])
    tracer = tracing.Tracer()
    tracer.install(clroute)
    try:
        for argv in argvs:
            assert clroute.cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()

    called = {span[0] for span in tracer.spans}
    assert set(tracing.METRIC_SOURCES) - called == STALE
    kernels = [span for span in tracer.spans if span[0].startswith("mc_verify._")]
    assert [(span[0], span[5]) for span in kernels] == [  # trials, read at args[3]
        ("mc_verify._under_losses", 200),
        ("mc_verify._over_losses", 200),
    ]
    metrics, _ = tracing.layer_metrics(tracer.spans, len(argvs))
    for name in (
        "shp.held_karp_ms.T10",
        "shp.odd_set_size.mean",
        "shp.euler_ms",
        "loss.loss_upper_ms",
        "mc_verify.under_ms_per_1k_trials",
        "mc_verify.over_ms_per_1k_trials",
    ):
        assert metrics[name] > 0, name
