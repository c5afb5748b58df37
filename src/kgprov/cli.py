"""Command-line harness: load graphs, register standing queries, apply
update workloads incrementally or naively, and dump engine state."""

from __future__ import annotations

import json
import sys

import click

from .inspection import connection_points, coverage, plan_dump
from .maintenance import Engine
from .planner import compute_statistics
from .query import parse_query
from .store import KnowledgeGraph, LoadError, load_ntriples_file
from .workload import (
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


def _load_graph(path: str) -> KnowledgeGraph:
    try:
        return load_ntriples_file(path)
    except LoadError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc


def _load_queries(paths):
    queries = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                queries.append(parse_query(fh.read()))
        except OSError as exc:
            raise click.ClickException(str(exc)) from exc
        except Exception as exc:
            raise click.ClickException(f"{path}: {exc}") from exc
    return queries


def _build_engine(graph_path: str, query_paths) -> Engine:
    engine = Engine(_load_graph(graph_path))
    for path, q in zip(query_paths, _load_queries(query_paths)):
        try:
            engine.register_query(q)
        except Exception as exc:
            raise click.ClickException(f"{path}: {exc}") from exc
    return engine


def _query_predicates(queries) -> list[str]:
    return sorted(
        {
            p.predicate
            for q in queries
            for p in q.patterns
            if isinstance(p.predicate, str)
        }
    )


graph_option = click.option(
    "-g", "--graph", "graph_path", required=True, type=click.Path(exists=True),
    help="Triple file to load.",
)
queries_option = click.option(
    "-q", "--query", "query_paths", multiple=True, type=click.Path(exists=True),
    help="Query file (repeatable).",
)


@click.group()
def main():
    """Embedded knowledge-graph engine with provenance-maintained
    standing queries."""


@main.command()
@click.argument("path", type=click.Path(exists=True))
def load(path):
    """Load a triple file and print its summary statistics."""
    g = _load_graph(path)
    click.echo(f"vertices:   {g.num_vertices}")
    click.echo(f"edges:      {g.num_edges}")
    click.echo(f"predicates: {g.num_predicates}")


@main.command()
@graph_option
@click.argument("query_paths", nargs=-1, required=True, type=click.Path(exists=True))
def register(graph_path, query_paths):
    """Register one or more standing queries and print their answers."""
    engine = Engine(_load_graph(graph_path))
    for path, q in zip(query_paths, _load_queries(query_paths)):
        try:
            receipt = engine.register_query(q)
        except Exception as exc:
            raise click.ClickException(f"{path}: {exc}") from exc
        click.echo(
            f"{path}: query {receipt.query_id}, "
            f"{len(receipt.answers)} answer(s), "
            f"{receipt.subquery_count} subqueries, "
            f"{len(connection_points(engine, receipt.query_id))} connection points"
        )
        for row in receipt.answers:
            values = {
                v: engine.graph.node_name(n) for v, n in row.bindings.items()
            }
            click.echo(f"  {values}  ::  {row.provenance.to_text()}")


@main.command("gen-workload")
@graph_option
@queries_option
@click.option("--size", type=int, required=True)
@click.option("--delete-ratio", type=float, default=None)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
def gen_workload(graph_path, query_paths, size, delete_ratio, preset, seed, out):
    """Generate a deterministic update workload file."""
    if preset is not None:
        delete_ratio = PRESETS[preset]
    if delete_ratio is None:
        delete_ratio = 0.5
    g = _load_graph(graph_path)
    pool = _query_predicates(_load_queries(query_paths))
    cfg = WorkloadConfig(size, delete_ratio, seed, pool)
    try:
        lines = generate_workload(g, cfg)
    except WorkloadError as exc:
        raise click.ClickException(str(exc)) from exc
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    click.echo(f"wrote {len(lines)} updates to {out}")


@main.command()
@graph_option
@queries_option
@click.argument("workload", type=click.Path(exists=True))
@click.option(
    "--mode", type=click.Choice(["incremental", "naive"]), default="incremental"
)
@click.option("--verify", is_flag=True, help="Run both modes and compare answers.")
@click.option("--json-out", type=click.Path(), default=None)
def apply(graph_path, query_paths, workload, mode, verify, json_out):
    """Apply a workload file and report timings."""
    with open(workload, "r", encoding="utf-8") as fh:
        try:
            ops = parse_workload(fh)
        except WorkloadError as exc:
            raise click.ClickException(str(exc)) from exc

    reports = {}
    snapshots = {}
    modes = ["incremental", "naive"] if verify else [mode]
    for m in modes:
        if m == "incremental":
            engine = _build_engine(graph_path, query_paths)
            reports[m] = apply_incremental(engine, ops)
            snapshots[m] = engine_answer_snapshot(engine)
            problems = engine.index_audit()
            if problems:
                raise click.ClickException(
                    "index audit failed: " + "; ".join(problems[:5])
                )
        else:
            runner = NaiveRunner(_load_graph(graph_path), _load_queries(query_paths))
            reports[m] = runner.apply(ops)
            snapshots[m] = naive_answer_snapshot(runner)

    for m in modes:
        r = reports[m]
        click.echo(
            f"{m:>11}: {r.updates} updates ({r.inserts}+/{r.deletes}-,"
            f" {r.skipped} skipped)  total {r.total_time:.3f}s"
            f"  mean {r.mean_update_time * 1000:.3f}ms"
        )
        if m == "incremental":
            click.echo(
                f"             response {r.response_time:.3f}s"
                f"  maintenance {r.maintenance_time:.3f}s"
                f"  answers +{r.answers_added}/-{r.answers_removed}"
            )
    if verify:
        if snapshots["incremental"] == snapshots["naive"]:
            click.echo("verify: answer sets identical across modes")
        else:
            raise click.ClickException("verify: modes disagree on final answers")
    if json_out:
        payload = {m: reports[m].to_json() for m in modes}
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)


@main.command()
@click.option("--trials", type=int, default=20)
@click.option("--max-edges", type=int, default=300)
@click.option("--updates", type=int, default=500)
@click.option("--seed", type=int, default=0)
def verify(trials, max_edges, updates, seed):
    """Randomized equivalence trials against from-scratch evaluation."""
    report = run_equivalence_trials(trials, max_edges, updates, seed)
    click.echo(
        f"{report.trials} trials, {report.updates} updates, "
        f"{report.comparisons} comparisons"
    )
    for failure in report.failures:
        click.echo(f"FAIL: {failure}", err=True)
    if not report.ok:
        sys.exit(1)
    click.echo("all trials passed")


@main.command()
@graph_option
@queries_option
@click.argument(
    "what", type=click.Choice(["answers", "annotations", "plan", "stats"])
)
def dump(graph_path, query_paths, what):
    """Dump engine state as JSON lines."""
    if what == "stats":
        g = _load_graph(graph_path)
        stats = compute_statistics(g)
        for pred in stats.predicates():
            click.echo(
                json.dumps(
                    {
                        "predicate": pred,
                        "edges": stats.pred_count(pred),
                        "distinct_pairs": len(stats.pairs(pred)),
                    }
                )
            )
        return
    engine = _build_engine(graph_path, query_paths)
    g = engine.graph
    if what == "answers":
        for qid in sorted(engine.queries):
            for row in engine.answers_of(qid):
                click.echo(
                    json.dumps(
                        {
                            "query": qid,
                            "bindings": {
                                v: g.node_name(n)
                                for v, n in row.bindings.items()
                            },
                            "provenance": row.provenance.to_text(),
                        }
                    )
                )
    elif what == "annotations":
        for ann in connection_points(engine):
            click.echo(
                json.dumps(
                    {
                        "node": g.node_name(ann.node),
                        "expected": ann.exp_rel,
                        "direction": ann.direction,
                        "query": ann.query_id,
                        "subquery": ann.removed,
                        "result": [g.node_name(v) for v in ann.result],
                        "provenance": ann.prov.to_text(),
                    }
                )
            )
    else:
        for entry in plan_dump(engine.plan):
            click.echo(json.dumps(entry))
        cov = coverage(engine.plan)
        click.echo(json.dumps({"coverage": cov}))


if __name__ == "__main__":
    main()
