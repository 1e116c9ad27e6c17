"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import statistics
from argparse import Namespace
from contextlib import contextmanager

import pytest

import harness
import run as bench_run
import stats
import tracer as tracing
from workloads import APPS, app_order

#: The reservation memory hierarchy of the swift-basic path.
MEMORY_HIERARCHY = (tracing.ACCESS_GLOBAL, tracing.COALESCE, tracing.L1_ACCESS,
                    tracing.L2_ACCESS, tracing.NOC_SEND, tracing.DRAM_RESERVE)

# ----------------------------------------------------------------------
# quartile math


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_interquartile_range_over_median():
    values = list(range(1, 11))  # q1 2.75, median 5.5, q3 8.25
    assert stats.median(values) == 5.5
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert stats.spread([2.0] * 10) == 0.0


def test_median_of_means_averages_each_app_first():
    per_app = [[1.0, 3.0], [10.0, 10.0], [4.0, 2.0]]  # means 2, 10, 3
    assert stats.median_of_means(per_app) == 3.0


# ----------------------------------------------------------------------
# span arithmetic


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_span_self_times_sum_to_op_wall():
    layers = (tracing.OP, "a", "b", "c")
    tr = tracing.Tracer(layers, recorded={tracing.OP, "a", "b"},
                        clock=fake_clock(0.0, 1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 10.0))
    b = tr.wrap(lambda: None, "b")     # b: 2 .. 4
    a = tr.wrap(b, "a")                # a: 1 .. 6
    c = tr.wrap(lambda: None, "c")     # c: 7 .. 9, aggregated only
    root = tr.begin_op(0)              # op opens at 0
    a()
    c()
    assert tr.end_op(root, "op") == 10.0
    report = tr.report()
    assert report[tracing.OP]["self_s"] == 3.0   # 10 - 5 - 2
    assert report["a"]["self_s"] == 3.0          # 5 - 2
    assert report["b"]["self_s"] == 2.0
    assert report["c"] == {"calls": 1, "self_s": 2.0, "share": 0.2}
    spans = {s[1]: s for s in tr.spans}
    assert spans["b"][4] == spans["a"][0]         # b's parent is a
    assert spans["a"][4] == spans[tracing.OP][0]
    assert "c" not in spans
    uncovered = tr.check_op(10.001, required=("a", "b", "c"), max_glue_share=0.3)
    assert uncovered == pytest.approx(0.001)
    assert tr.max_uncovered_s == uncovered


def _one_op(required=(), outer_wall=10.0, max_glue_share=0.5):
    """An op 0 .. 10 with one span "a" 1 .. 6 inside, then its check."""
    tr = tracing.Tracer((tracing.OP, "a", "b"),
                        clock=fake_clock(0.0, 1.0, 6.0, 10.0))
    root = tr.begin_op(0)
    tr.wrap(lambda: None, "a")()
    tr.end_op(root, "op")
    return tr.check_op(outer_wall, required=required, max_glue_share=max_glue_share)


def test_time_outside_the_spans_fails_the_check():
    assert _one_op() == 0.0
    with pytest.raises(tracing.CoverageError, match="uncovered"):
        _one_op(outer_wall=10.0 + 2 * tracing.MAX_UNCOVERED_S)
    with pytest.raises(tracing.CoverageError, match="uncovered"):
        _one_op(outer_wall=9.0)  # self times cannot exceed the wall


def test_missing_layer_fails_the_check():
    _one_op(required=("a",))
    with pytest.raises(tracing.CoverageError, match="no span of b"):
        _one_op(required=("a", "b"))


def test_glue_above_its_share_fails_the_check():
    with pytest.raises(tracing.CoverageError, match="in no layer"):
        _one_op(max_glue_share=0.4)  # the root keeps 5 s of 10


def test_cache_spans_are_named_by_instance():
    from repro import get_preset
    from repro.memory.cache import SectoredCache

    config = get_preset("rtx2080ti").l1
    tr = tracing.Tracer()
    root = tr.begin_op(0)
    with tracing.instrument(tr):
        timed_l1 = SectoredCache(config, name="l1_sm0")
        timed_l2 = SectoredCache(config, name="l2_slice3")
        profiler_l1 = SectoredCache(config, name="prof_l1_0")
        profiler_l2 = SectoredCache(config, name="l2_slice3")
        timed_l1.access(5, 0, False, 10)
        timed_l2.access(5, 0, False, 10)
        timed_l2.access(6, 0, False, 11)
        profiler_l1.access_functional(5, 0, False)
        profiler_l2.access_functional(5, 0, False)
    tr.end_op(root, "op")
    report = tr.report()
    assert report[tracing.L1_ACCESS]["calls"] == 1
    assert report[tracing.L2_ACCESS]["calls"] == 2
    assert report[tracing.ACCESS_FUNCTIONAL]["calls"] == 2
    assert SectoredCache.access.__name__ == "access"  # originals restored


# ----------------------------------------------------------------------
# seeds


def test_seed_fixes_app_order():
    assert app_order(7, 0) == app_order(7, 0)
    assert sorted(app_order(7, 0)) == sorted(APPS)
    assert app_order(7, 0) != app_order(8, 0)
    assert app_order(7, 0) != app_order(7, 1)


# ----------------------------------------------------------------------
# output checks


def _run(tmp_path, capsys, reference, workload="suite-basic", trace=0,
         apps=("nw", "lu")):
    args = Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    code = bench_run.execute(args, reference=reference, apps=list(apps),
                             out_dir=tmp_path)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_correct_cycles_pass(tmp_path, capsys):
    code, report = _run(tmp_path, capsys, harness.load_reference())
    assert code == 0
    assert report["correct"] and report["attempted"] == 2 and report["failed"] == 0
    assert set(report["metrics"]) == {name for name, __ in harness.END_TO_END}


def test_wrong_cycle_count_fails_op_and_exit_code(tmp_path, capsys):
    reference = harness.load_reference()
    reference["cycles"]["swift-basic"]["nw"] += 1
    code, report = _run(tmp_path, capsys, reference)
    assert code == 1
    assert not report["correct"]
    assert report["failed"] == 1 and report["attempted"] == 2


def test_unwrapped_layer_fails_the_traced_op(tmp_path, capsys, monkeypatch):
    """A real span goes missing: the engine runs, but past its wrapper."""
    from repro.sim.engine import Engine

    raw_run = Engine.__dict__["run"]
    instrument = tracing.instrument

    @contextmanager
    def instrument_but_engine(tracer):
        with instrument(tracer):
            Engine.run = raw_run  # instrument's exit restores raw_run
            yield

    monkeypatch.setattr(tracing, "instrument", instrument_but_engine)
    code, report = _run(tmp_path, capsys, harness.load_reference(), trace=1,
                        apps=("nw",))
    assert code == 1
    assert report["failed"] == 1 and report["metrics"] == {}
    assert Engine.__dict__["run"] is raw_run


def test_traced_run_attributes_time_to_the_right_layers(tmp_path, capsys):
    reference = harness.load_reference()
    code, basic = _run(tmp_path, capsys, reference, trace=1)
    assert code == 0
    m = {k: v["value"] for k, v in basic["metrics"].items()}
    memory = sum(m[f"{layer}.share"] for layer in MEMORY_HIERARCHY)
    assert memory > 0.3
    assert m["frontend.precharacterize.calls"] == 0
    assert m["trace.overhead_x"] > 1.0
    code, sweep = _run(tmp_path, capsys, reference, workload="sweep-analytic",
                       trace=1, apps=("nw",))
    assert code == 0
    m = {k: v["value"] for k, v in sweep["metrics"].items()}
    # On the sweep, coalescing is only called from inside precharacterize.
    assert m["frontend.precharacterize.share"] + m["memory.coalesce.share"] > 0.8
    assert all(m[f"{layer}.calls"] == 0 for layer in MEMORY_HIERARCHY
               if layer != tracing.COALESCE)
    assert 0.0 < m["trace.uncovered_s"] < tracing.MAX_UNCOVERED_S
