"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

import collections
import hashlib
import json
import threading
import time
from fractions import Fraction

import pytest

import run
import tracer as tracing
import worker
import workloads

ft = worker.import_falsetheta()
from falsetheta import cli  # noqa: E402


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)


def _kernel_set(ops):
    """Multiset of the expensive builds a coeffs input triggers."""
    kernels = collections.Counter()
    for ident, params, order, corrupt in ops:
        if corrupt:
            continue
        if ident == "E12":
            kernels[("E12", order, workloads.e12_kernel_class(Fraction(params["r1"]),
                                                               params["r2"]))] += 1
        else:
            kernels[(ident, order, params.get("part"))] += 1
    return kernels


def test_coeffs_seeds_change_points_not_kernels():
    base = workloads.coeffs_inputs(1)
    points = set()
    for seed in range(1, 30):
        ops = workloads.coeffs_inputs(seed)
        assert _kernel_set(ops) == _kernel_set(base)
        assert [(i, c) for i, _, _, c in ops] == [(i, c) for i, _, _, c in base]
        points.add(json.dumps([p for _, p, _, _ in ops], sort_keys=True))
    assert len(points) > 20


def test_coeffs_corrupt_points_repeat_built_points():
    ops = workloads.coeffs_inputs(3)
    clean = [(i, p, o) for i, p, o, c in ops if not c]
    for ident, params, order, corrupt in ops:
        if corrupt:
            assert (ident, params, order) in clean


def test_suite_orders_stay_in_band():
    seen = collections.defaultdict(set)
    for seed in range(200):
        spec = workloads.suite_inputs(seed)
        assert spec["pattern"].split("|") == list(workloads.SUITE_ORDERS)
        assert spec["jobs"] >= 1
        for ident, order in spec["orders"].items():
            base, width = workloads.SUITE_ORDERS[ident]
            assert base - width <= order <= base
            seen[ident].add(order)
    for ident, (base, width) in workloads.SUITE_ORDERS.items():
        assert seen[ident] == set(range(base - width, base + 1))
    assert not set(workloads.LEFT_OUT) & set(workloads.SUITE_ORDERS)


def test_every_identity_is_benchmarked_or_left_out_once():
    groups = [set(workloads.SUITE_ORDERS), set(workloads.LEFT_OUT), set(workloads.COEFFS_ORDERS)]
    assert sum(len(g) for g in groups) == len(set().union(*groups))
    assert set().union(*groups) == set(ft.registered_ids())


def test_expand_seed_only_shuffles():
    a, b = workloads.expand_inputs(1), workloads.expand_inputs(2)
    assert a != b
    assert sorted(a) == sorted(b) == sorted(["expand", *c] for c in workloads.EXPAND_CALLS)


def test_expected_expand_covers_every_call():
    expected = workloads.load_expected()
    assert set(expected) == {("expand", *c) for c in workloads.EXPAND_CALLS}


# -- output checks --------------------------------------------------------------


def test_any_deviation_is_wrong_except_a_known_failure():
    calls = [["expand", "rogers", "--order", "5"], ["expand", "eta", "--order", "5"],
             ["expand", "Ghyper", "--r", "0,0", "--order", "2"],
             ["expand", "coeffF", "--r", "0,0", "--p", "2", "--order", "2"]]
    expected = {}
    for argv in calls:
        rc, text = workloads.run_cli(cli, argv)
        expected[tuple(argv)] = {"exit": 0, "sha256": hashlib.sha256(
            text.encode()).hexdigest()}
    expected[tuple(calls[1])]["sha256"] = "0" * 64  # wrong digest
    expected[tuple(calls[2])]["known_failure_exit"] = 2  # exits 2 as recorded
    out = workloads.run_workload(ft, "expand", calls, expected)  # coeffF: unexpected exit 2
    assert out.counts() == {"attempted": 4, "failed": 3, "wrong": 2}


def test_expected_known_failures_are_ghyper_and_coeffF_only():
    known = {argv[1]: e["known_failure_exit"] for argv, e in workloads.load_expected().items()
             if "known_failure_exit" in e}
    assert known == {"Ghyper": 2, "coeffF": 2}


def test_coeffs_corrupt_point_must_be_unequal():
    out = workloads.run_workload(ft, "coeffs", [
        ("E7", {"p": 2, "r": (1, -1)}, 6, False),
        ("E7", {"p": 2, "r": (1, -1)}, 6, True),
    ])
    assert out.counts() == {"attempted": 2, "failed": 0, "wrong": 0}
    assert set(out.verify_s) == {"E7"}


def test_coeffs_exception_is_wrong(monkeypatch):
    def corrupted_reported_equal(*args, **kwargs):
        raise AssertionError("corrupted comparison reported equal")

    monkeypatch.setattr(ft, "verify_identity", corrupted_reported_equal)
    out = workloads.run_workload(ft, "coeffs", [("E7", {"p": 2, "r": (1, -1)}, 6, True)])
    assert out.counts() == {"attempted": 1, "failed": 1, "wrong": 1}


def test_suite_empty_report_is_wrong(monkeypatch):
    monkeypatch.setattr(ft, "run_suite", lambda **kwargs: [])
    monkeypatch.setattr(ft, "LAW_IDS", ())
    out = workloads.run_workload(ft, "suite", workloads.suite_inputs(1))
    assert out.counts() == {"attempted": 1, "failed": 1, "wrong": 1}


# -- tracing --------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_of_nested_spans():
    tr = tracing.Tracer(clock=FakeClock())
    leaf = tr.wrap("series", "mul", lambda a, b: a)
    box = type("S", (), {"terms": {1: 1, 2: 2}})()

    def body():
        leaf(box, box)
        leaf(box, box)

    outer = tr.wrap("families", "G_frak", body)
    outer()
    (rows,) = tr.thread_spans()
    # clock ticks: outer 1..6, first leaf 2..3, second leaf 4..5
    by_op = {}
    for layer, op, parent, start, end, self_s, sizes in rows:
        by_op.setdefault(op, []).append((parent, end - start, self_s, sizes))
    assert by_op["G_frak"] == [(-1, 5.0, 3.0, (0,))]
    assert by_op["mul"] == [(0, 1.0, 1.0, (4,)), (0, 1.0, 1.0, (4,))]
    m = tracing.layer_metrics(tr)
    assert m["families.self_s"] == 3.0 and m["families.total_s"] == 5.0
    assert m["series.mul.term_pairs"] == 8 and m["series.mul.calls"] == 2


def test_threaded_spans_keep_their_own_parents():
    tr = tracing.Tracer()
    opened, closed = threading.Event(), threading.Event()

    def slow_outer():
        opened.set()
        closed.wait(5)
        time.sleep(0.05)

    def inner():
        opened.wait(5)
        time.sleep(0.1)
        closed.set()

    a = threading.Thread(target=tr.wrap("identities", "verify_identity", slow_outer))
    b = threading.Thread(target=tr.wrap("series", "mul_free", inner))
    a.start(), b.start()
    a.join(10), b.join(10)
    assert not a.is_alive() and not b.is_alive()
    spans = tr.thread_spans()
    assert len(spans) == 2
    for rows in spans:
        (layer, op, parent, start, end, self_s, sizes), = rows
        assert parent == -1
        assert self_s == pytest.approx(end - start)
        assert self_s > 0
    outer = next(r[0] for r in spans if r[0][1] == "verify_identity")
    # the other thread's span ran inside this one's interval but is not its child
    assert outer[5] >= 0.14


def test_queue_wait_counts_from_suite_start():
    tr = tracing.Tracer(clock=FakeClock())
    case = tr.wrap("identities", "verify_identity", lambda: None)

    def suite():
        case()
        case()

    tr.wrap("identities", "run_suite", suite)()
    m = tracing.layer_metrics(tr)
    # suite opens at 1; cases open at 2 and 4
    assert m["identities.cases"] == 2
    assert m["identities.queue_wait_s"] == 1.0 + 3.0


def _clear_caches():
    for mod in (ft.thetas, ft.families):
        for val in vars(mod).values():
            if hasattr(val, "cache_clear"):
                val.cache_clear()


def _traced_expand(calls):
    _clear_caches()
    tr = tracing.Tracer()
    tr.install(worker.falsetheta_modules())
    try:
        out = workloads.run_workload(ft, "expand", calls, {
            tuple(c): {"exit": 0, "sha256": ""} for c in calls})
    finally:
        tr.uninstall()
    cached = [f for f in (getattr(ft.thetas, n) for n in ft.thetas.__all__)
              if hasattr(f, "cache_info")]
    return out, tracing.layer_metrics(tr, cached)


def test_install_counts_repeat_exactly_and_uninstall_restores():
    originals = (ft.PuiseuxSeries.__mul__, ft.PuiseuxSeries.__radd__, ft.verify_identity,
                 ft.identities.verify_identity, ft.thetas.f_series, cli.main)
    calls = [["expand", "f", "--order", "3", "--window", "3"],
             ["expand", "kwN3", "--order", "2"],
             ["expand", "Gfrak", "--p", "2", "--order", "6", "--format", "json"]]
    out1, m1 = _traced_expand(calls)
    out2, m2 = _traced_expand(calls)
    counts = [k for k in m1 if k.endswith(("calls", "pairs", "keys_out", "terms_out",
                                           "hits", "misses", "duplicate_builds"))]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["cli.calls"] == 3 and out1.attempted == 3
    assert m1["series.mul.term_pairs"] > 0 and m1["bilaurent.mul.key_pairs"] > 0
    assert m1["families.calls"] >= 1 and m1["families.terms_out"] > 0
    assert m1["thetas.cache.misses"] > 0
    assert all(v >= 0 for v in m1.values())
    assert originals == (ft.PuiseuxSeries.__mul__, ft.PuiseuxSeries.__radd__,
                         ft.verify_identity, ft.identities.verify_identity,
                         ft.thetas.f_series, cli.main)


# -- run summary ----------------------------------------------------------------


def _worker(attempted, failed, wrong):
    return {"attempted": attempted, "failed": failed, "wrong": wrong}


def test_counts_are_one_workers_whatever_the_worker_count():
    for n in (1, 5, 7):
        assert run.op_counts([_worker(13, 2, 0)] * n) == {
            "correct": True, "attempted": 13, "failed": 2}


def test_wrong_or_disagreeing_workers_make_the_run_incorrect():
    assert not run.op_counts([_worker(13, 3, 1)] * 3)["correct"]
    assert not run.op_counts([_worker(13, 2, 0), _worker(13, 3, 0)])["correct"]


def test_metric_names_come_from_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert list(run.metric_units(0)) == [m["name"] for m in bench["end_to_end"]]
    assert list(run.metric_units(1)) == [m["name"] for m in bench["per_layer"]]
    workers = [{"wall_s": 2.0, "peak_rss_mb": 20.0}]
    assert set(run.metric_units(0)) <= set(run.end_to_end(workers, [0.1]))
