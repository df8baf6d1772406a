"""The benchmark's tracer finds every program function it times.

`perfbench/tracer.py` wraps named functions of the package from outside; a
name that a refactor removes or moves is reported missing, and every
per-layer metric computed from it reads None.  So is the metric of a hook
that reads an attribute a refactor renames.  This pins the names, and the
metrics of a traced run of each command kind.
"""

import io

from conftest import load_perfbench

from t0enum import cli


def test_tracer_finds_every_target():
    tracer = load_perfbench("tracer").Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_traced_commands_report_every_metric():
    # A hook that reads a renamed attribute, or a span a refactor reroutes,
    # makes the traced run's metrics read missing or None though every name
    # above still resolves: run each command kind under the tracer.
    module = load_perfbench("tracer")
    tracer = module.Tracer()
    commands = (
        ["verify", "--class", "bar_theta_circ_03", "--m-max", "2", "--n-max", "2"],
        ["verify", "--class", "beta_01", "--m-max", "2", "--n-max", "2"],
        ["table", "--class", "theta_star_12", "--m", "1..2", "--n", "1..3", "--k", "2"],
        ["egf-check", "--family", "2", "--order-x", "3", "--order-y", "3"],
        ["oracle", "--class", "alpha_star_12", "--m", "4", "--n", "4"],
        ["sequence", "--class", "omega_33", "--limit", "10"],
    )
    try:
        tracer.install()
        codes = [cli.main(argv, out=io.StringIO()) for argv in commands]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(commands)
    report = tracer.report()
    assert report["missing"] == []
    assert [name for name, (value, _) in module.layer_metrics(report).items() if value is None] == []
