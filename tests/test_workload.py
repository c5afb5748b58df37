"""Workload generation/parsing and the two benchmark drivers."""

from __future__ import annotations

import random

import pytest

from kgprov.maintenance import Engine
from kgprov.query import parse_query
from kgprov.store import load_ntriples_file
from kgprov.workload import (
    PRESETS,
    NaiveRunner,
    WorkloadConfig,
    WorkloadError,
    apply_incremental,
    engine_answer_snapshot,
    generate_workload,
    naive_answer_snapshot,
    parse_workload,
    run_equivalence_trials,
)

from conftest import FIXTURE, RUNNING_QUERY, has_edge_between

POOL = ["hadAdvisor", "worksIn", "coAuthor", "hasDegree"]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def test_presets():
    assert PRESETS["insertion-heavy"] == 0.1
    assert PRESETS["deletion-heavy"] == 0.9
    assert len(PRESETS) == 5


def test_generation_deterministic_under_seed(academia):
    cfg = WorkloadConfig(200, 0.5, seed=42, predicate_pool=POOL)
    a = generate_workload(academia, cfg)
    b = generate_workload(load_ntriples_file(FIXTURE), cfg)
    assert a == b
    assert len(a) == 200
    different = generate_workload(
        academia, WorkloadConfig(200, 0.5, seed=43, predicate_pool=POOL)
    )
    assert a != different


def test_generation_size_zero(academia):
    assert generate_workload(academia, WorkloadConfig(0, 0.5, 1, POOL)) == []


def test_generation_requires_pool(academia):
    with pytest.raises(WorkloadError):
        generate_workload(academia, WorkloadConfig(10, 0.5, 1, []))


def test_insertions_connect_unconnected_pairs(academia):
    """Each generated insertion joins a vertex pair with no live edge
    between it at that point of the stream (simulated replay)."""
    g = academia
    lines = generate_workload(g, WorkloadConfig(300, 0.5, 7, POOL))
    engine = Engine(g)
    for op in parse_workload(lines):
        if op[0] == "+":
            s, p, o = op[1]
            assert s != o
            sid, oid = g.nodes.get(s), g.nodes.get(o)
            if sid is not None and oid is not None:
                assert not has_edge_between(g, sid, oid)
                assert not has_edge_between(g, oid, sid)
            engine.insert_triple(s, p, o)
        else:
            assert op[0] == "-id"
            assert engine.delete_edge(op[1]) is not None  # always resolvable


def test_delete_ratio_direction(academia):
    # small size: the 12-vertex fixture runs out of unconnected pairs on
    # long insertion-heavy streams
    def deletes(ratio, seed=3):
        lines = generate_workload(
            academia, WorkloadConfig(50, ratio, seed, POOL)
        )
        return sum(1 for l in lines if l.startswith("-"))

    assert deletes(0.1) < deletes(0.5) < deletes(0.9)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_workload_forms():
    ops = parse_workload(
        ["# header", "", "+ a p b", "- e12", "- a p b"]
    )
    assert ops == [("+", ("a", "p", "b")), ("-id", 12), ("-triple", ("a", "p", "b"))]


@pytest.mark.parametrize(
    "line", ["* a p b", "+ a p", "- a p", "-", "+ a p b c", "- e12x", "- e", "- eve"]
)
def test_parse_workload_rejects_bad_lines(line):
    with pytest.raises(WorkloadError):
        parse_workload([line])


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def build_incremental():
    engine = Engine(load_ntriples_file(FIXTURE))
    engine.register_query(parse_query(RUNNING_QUERY))
    engine.register_query(
        parse_query("SELECT ?a WHERE { ?a hasDegree PhD . ?a worksIn ?w . }")
    )
    return engine


def build_naive():
    queries = [
        parse_query(RUNNING_QUERY),
        parse_query("SELECT ?a WHERE { ?a hasDegree PhD . ?a worksIn ?w . }"),
    ]
    return NaiveRunner(load_ntriples_file(FIXTURE), queries)


def test_modes_agree_on_fixture_workload():
    g = load_ntriples_file(FIXTURE)
    lines = generate_workload(g, WorkloadConfig(400, 0.5, 11, POOL))
    ops = parse_workload(lines)

    engine = build_incremental()
    inc_report = apply_incremental(engine, ops)
    assert engine.index_audit() == []

    runner = build_naive()
    naive_report = runner.apply(ops)

    assert engine_answer_snapshot(engine) == naive_answer_snapshot(runner)
    assert inc_report.updates == naive_report.updates == 400
    assert inc_report.inserts == naive_report.inserts
    assert inc_report.response_time + inc_report.maintenance_time <= (
        inc_report.total_time + 1e-6
    )
    payload = inc_report.to_json()
    assert payload["mode"] == "incremental"
    assert payload["updates"] == 400


def test_unresolvable_deletes_are_skipped():
    engine = build_incremental()
    ops = [("-id", 12345), ("-triple", ("NoSuch", "worksIn", "Nowhere"))]
    report = apply_incremental(engine, ops)
    assert report.skipped == 2
    assert report.updates == 0


def test_triple_delete_resolves_lowest_edge_id():
    engine = build_incremental()
    engine.insert_triple("Ooi", "coAuthor", "Ramakrishnan")  # duplicate of e4
    report = apply_incremental(
        engine, [("-triple", ("Ooi", "coAuthor", "Ramakrishnan"))]
    )
    assert report.deletes == 1
    assert 4 not in engine.graph.edges
    assert 18 in engine.graph.edges


# ---------------------------------------------------------------------------
# Randomized equivalence harness
# ---------------------------------------------------------------------------


def test_equivalence_trials_smoke():
    report = run_equivalence_trials(trials=4, max_edges=80, updates=60, seed=2024)
    assert report.ok
    assert report.trials == 4
    assert report.updates > 0
    assert report.comparisons >= report.updates


def test_equivalence_trials_detect_planted_fault(monkeypatch):
    """Disabling deletion pruning must be caught at the first affected
    comparison."""
    from kgprov import maintenance

    original = maintenance.Engine.handle_deletion

    def broken(self, e):
        report = maintenance.UpdateReport(op="delete", edge_id=e.id)
        return report  # forgets to touch answers, annotations, or tables

    monkeypatch.setattr(maintenance.Engine, "handle_deletion", broken)
    report = run_equivalence_trials(trials=3, max_edges=60, updates=40, seed=5)
    assert not report.ok
    monkeypatch.setattr(maintenance.Engine, "handle_deletion", original)
