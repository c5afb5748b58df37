"""Command-line surface, driven through click's test runner."""

from __future__ import annotations

import json
import os

import pytest
from click.testing import CliRunner

from kgprov.cli import main

from conftest import FIXTURE, RUNNING_QUERY


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "collab.rq"
    path.write_text(RUNNING_QUERY, encoding="utf-8")
    return str(path)


def test_load_summary(runner):
    result = runner.invoke(main, ["load", FIXTURE])
    assert result.exit_code == 0, result.output
    assert "vertices:   12" in result.output
    assert "edges:      17" in result.output
    assert "predicates: 4" in result.output


def test_load_malformed_file(runner, tmp_path):
    bad = tmp_path / "bad.nt"
    bad.write_text("<a> <p> <b> .\n<too> <many> <tokens> <here> .\n", encoding="utf-8")
    result = runner.invoke(main, ["load", str(bad)])
    assert result.exit_code != 0
    assert "line 2" in result.output


def test_register_prints_receipt_and_answers(runner, query_file):
    result = runner.invoke(main, ["register", "-g", FIXTURE, query_file])
    assert result.exit_code == 0, result.output
    assert "query 1, 1 answer(s), 5 subqueries, 16 connection points" in result.output
    assert "Stonebraker" in result.output
    assert "e2*e3*e5*e14*e17 + e2*e3*e6*e8*e17" in result.output


def test_register_rejects_bad_query(runner, tmp_path):
    bad = tmp_path / "bad.rq"
    bad.write_text("SELECT ?x WHERE { ?x ?p ?y . }", encoding="utf-8")
    result = runner.invoke(main, ["register", "-g", FIXTURE, str(bad)])
    assert result.exit_code != 0
    assert "variable predicates" in result.output


def test_gen_workload_then_apply_with_verify(runner, query_file, tmp_path):
    wl = tmp_path / "updates.txt"
    result = runner.invoke(
        main,
        [
            "gen-workload",
            "-g", FIXTURE,
            "-q", query_file,
            "--size", "60",
            "--preset", "balanced",
            "--seed", "9",
            "--out", str(wl),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "wrote 60 updates" in result.output
    lines = wl.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 60
    assert all(line.startswith(("+", "-")) for line in lines)

    json_out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        [
            "apply",
            "-g", FIXTURE,
            "-q", query_file,
            str(wl),
            "--verify",
            "--json-out", str(json_out),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "verify: answer sets identical across modes" in result.output
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert set(payload) == {"incremental", "naive"}
    assert payload["incremental"]["updates"] == payload["naive"]["updates"]


def test_apply_naive_mode_only(runner, query_file, tmp_path):
    wl = tmp_path / "updates.txt"
    wl.write_text("+ Ooi coAuthor Gehrke\n- e14\n", encoding="utf-8")
    result = runner.invoke(
        main, ["apply", "-g", FIXTURE, "-q", query_file, str(wl), "--mode", "naive"]
    )
    assert result.exit_code == 0, result.output
    assert "naive: 2 updates" in result.output.replace("  ", " ").strip()


def test_apply_rejects_bad_workload(runner, query_file, tmp_path):
    wl = tmp_path / "updates.txt"
    wl.write_text("nonsense\n", encoding="utf-8")
    result = runner.invoke(
        main, ["apply", "-g", FIXTURE, "-q", query_file, str(wl)]
    )
    assert result.exit_code != 0
    assert "bad update" in result.output


def test_dump_answers(runner, query_file):
    result = runner.invoke(
        main, ["dump", "-g", FIXTURE, "-q", query_file, "answers"]
    )
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert len(rows) == 1
    assert rows[0]["bindings"]["prof"] == "Stonebraker"
    assert rows[0]["provenance"] == "e2*e3*e5*e14*e17 + e2*e3*e6*e8*e17"


def test_dump_annotations(runner, query_file):
    result = runner.invoke(
        main, ["dump", "-g", FIXTURE, "-q", query_file, "annotations"]
    )
    assert result.exit_code == 0, result.output
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert len(rows) == 16
    ooi = [
        r
        for r in rows
        if r["node"] == "Ooi" and r["expected"] == "coAuthor"
        and r["direction"] == "out"
    ]
    assert any(r["provenance"] == "e15*e16" for r in ooi)


@pytest.mark.parametrize("what", ["answers", "annotations", "plan", "stats", "register"])
def test_dump_matches_golden_output(runner, tmp_path, monkeypatch, what):
    """The running query's dump, byte for byte as recorded in
    tests/data/running_<what>.jsonl, and its `register` output as
    recorded in tests/data/running_register.txt.  The query file is
    named by a relative path, because `register` prints it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "collab.rq").write_text(RUNNING_QUERY, encoding="utf-8")
    if what == "register":
        args, golden = ["register", "-g", FIXTURE, "collab.rq"], "running_register.txt"
    else:
        args, golden = ["dump", "-g", FIXTURE, "-q", "collab.rq", what], f"running_{what}.jsonl"
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    with open(os.path.join(os.path.dirname(FIXTURE), golden), "rb") as fh:
        assert result.stdout_bytes == fh.read()


def test_dump_plan_and_stats(runner, query_file):
    result = runner.invoke(main, ["dump", "-g", FIXTURE, "-q", query_file, "plan"])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.splitlines()]
    assert "coverage" in lines[-1]
    assert all("expr" in entry for entry in lines[:-1])

    result = runner.invoke(main, ["dump", "-g", FIXTURE, "stats"])
    assert result.exit_code == 0, result.output
    stats = {json.loads(l)["predicate"]: json.loads(l) for l in result.output.splitlines()}
    assert stats["hadAdvisor"]["edges"] == 5
    assert stats["worksIn"]["edges"] == 4


def test_verify_command(runner):
    result = runner.invoke(
        main,
        ["verify", "--trials", "2", "--max-edges", "60", "--updates", "40", "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    assert "all trials passed" in result.output
