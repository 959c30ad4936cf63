"""Tests of the benchmark's own machinery: references, failure accounting, spans."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Tally  # noqa: E402

from cauchylab import commutator, operator  # noqa: E402
from cauchylab.curve import LipschitzCurve, eval_A  # noqa: E402
from cauchylab.kernel import CauchyKernel  # noqa: E402
from cauchylab.sampling import Interval, SampledFunction  # noqa: E402


@pytest.mark.parametrize("curve", [LipschitzCurve.flat(), LipschitzCurve.sawtooth(0.5, 2.0)],
                         ids=["flat", "sawtooth"])
def test_reference_sum_agrees_with_library_on_tiny_grid(curve):
    rng = np.random.default_rng(5)
    cells = 48
    h = 4.0 / cells
    values = rng.uniform(-1, 1, cells) + 1j * rng.uniform(-1, 1, cells)
    f = SampledFunction(-2.0 + 0.5 * h, h, values)
    kernel = CauchyKernel.for_curve(curve)
    xs = f.midpoints_in(Interval(0.0, 2.5))
    nodes = f.nodes
    a_nodes, a_xs = eval_A(curve, nodes), eval_A(curve, xs)

    pv_ref = ref.cauchy_sums(nodes, a_nodes, f.values, h, xs, a_xs)
    assert ref.max_rel_dev(operator.pv_values(kernel, f, xs), pv_ref) < 1e-13
    t = 5 * h
    tr_ref = ref.cauchy_sums(nodes, a_nodes, f.values, h, xs, a_xs, cut=t)
    assert ref.max_rel_dev(operator.truncated_values(kernel, f, xs, t), tr_ref) < 1e-13


def _perturbed(op, factor):
    return workloads.Op(op.name, lambda: op.call() * factor, op.check)


def test_operator_result_perturbed_above_tolerance_is_a_failed_operation(tmp_path):
    ops = workloads.operator_flat(3, tmp_path, cells=64)
    tally = Tally()
    for op in ops:
        tally.execute(op)
    assert (tally.attempted, tally.failed, tally.mismatched) == (3, 0, 0)
    assert tally.max_rel_dev < 1e-13

    tally.execute(_perturbed(ops[0], 1.0 + 1e-12))  # inside the tolerance
    assert tally.failed == 0
    tally.execute(_perturbed(ops[0], 1.0 + 1e-8))
    assert (tally.attempted, tally.failed, tally.mismatched) == (5, 1, 1)
    assert tally.problems and "misses its reference" in tally.problems[-1]


def test_raising_operation_or_check_is_failed_and_incorrect(tmp_path):
    def boom(*args):
        raise RuntimeError("broken")

    tally = Tally()
    tally.execute(workloads.Op("boom", boom, lambda out: workloads.Check(True)))
    assert (tally.failed, tally.mismatched) == (1, 1)
    tally.execute(workloads.Op("unreadable", lambda: None, boom))
    assert (tally.failed, tally.mismatched) == (2, 2)


def test_oscillation_checks_pass_and_catch_a_perturbed_row(tmp_path):
    ops = workloads.oscillation(4, tmp_path, cells=128)
    tally = Tally()
    for op in ops:
        tally.execute(op)
    assert (tally.attempted, tally.failed) == (6, 0), tally.problems

    table_op = ops[0]

    def shifted():
        table = table_op.call()
        return [(I, osc * (1.0 + 1e-6)) for I, osc in table]

    tally.execute(workloads.Op(table_op.name, shifted, table_op.check))
    assert tally.failed == 1


def test_lab_exit_2_counts_as_failed_but_matches_its_recorded_status(tmp_path):
    recorded = {"exit": 2, "extras": {}}
    check = workloads._lab_check(2, tmp_path / "none", recorded)
    assert check.matches and check.rejected

    out_dir = tmp_path / "reports"
    out_dir.mkdir()
    (out_dir / "summary.json").write_text('{"extras": {"norm": 1.0000001}}')
    check = workloads._lab_check(0, out_dir, {"exit": 0, "extras": {"summary.norm": 1.0}})
    assert not check.matches and "summary.norm" in check.detail
    assert not out_dir.exists()


def test_self_times_on_synthetic_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 5.0, 6.0, parent=0),
        spans.Span("a.child", 2.0, 3.0, parent=1),
        spans.Span("b.child", 5.25, 5.5, parent=2),
        spans.Span("b.child", 5.5, 5.75, parent=2),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 0.5, 1.0, 0.25, 0.25])
    summary = spans.summarize(tree, ["root", "never"])
    assert summary["b.child"] == pytest.approx({"calls": 2, "s": 0.5, "total_s": 0.5})
    assert summary["never"] == {"calls": 0, "s": 0.0, "total_s": 0.0}
    assert spans.calls_under(tree, "b.child", "root") == 2
    assert spans.calls_under(tree, "b.child", "a") == 0


def test_tracer_sees_names_bound_by_from_import_and_restores_them():
    original = operator.pv_values
    tracer = spans.Tracer()
    tracer.install("cauchylab", ["operator", "commutator"])
    try:
        assert commutator.pv_values is not original
        h = 0.25
        f = SampledFunction(0.125, h, np.ones(16))
        b = f.with_values(np.linspace(-1.0, 1.0, 16))
        xs = f.midpoints_in(Interval(2.0, 1.0))
        commutator.commutator_values(b, f, CauchyKernel.for_curve(LipschitzCurve.flat()), xs)
    finally:
        tracer.uninstall()
    assert operator.pv_values is original and commutator.pv_values is original
    assert spans.calls_under(tracer.spans, "operator.pv_values",
                             "commutator.commutator_values") == 2
