"""Command-line entry point.

Subcommands: learn, query, similar, run-task, export. Results go to
stdout, diagnostics to stderr. Exit codes: 0 success, 1 usage or parse
failure or a failed task check, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .curriculum import builtin_curriculum, load_curriculum
from .errors import FormatError
from .graph import CATEGORY, ConceptNetwork, load_network, save_network
from .lang import ParseError
from .learner import UnlearnableGeneric, learn_curriculum
from .matrix import (
    agglomerative_order,
    build_matrix,
    category_vector,
    clusters_to_text,
    concept_vector,
    cosine_similarity,
    matrix_to_csv,
)
from .tasks import run_task, write_task_outputs

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage failures exit 1, not argparse's 2
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process on first use.

    parse_args keeps no state between calls, so every main() reuses it;
    nothing may add to or change the parser after it is built.
    """
    parser = _Parser(prog="wugnet",
                     description="Learn and query a concept network over toy English.")
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="train a network from a curriculum")
    learn.add_argument("--curriculum", required=True,
                       help="path to a curriculum file, or builtin:NAME")
    learn.add_argument("--network", required=True, help="output network file")
    learn.add_argument("--seed", type=int, default=0)
    learn.add_argument("--trace", action="store_true",
                       help="write an edge-update journal next to the network")

    query = sub.add_parser("query", help="list a concept's neighbors")
    query.add_argument("--network", required=True)
    query.add_argument("concept")

    similar = sub.add_parser("similar", help="cosine similarity of two concepts")
    similar.add_argument("--network", required=True)
    similar.add_argument("concept_a")
    similar.add_argument("concept_b")

    task = sub.add_parser("run-task", help="run a built-in evaluation task")
    task.add_argument("task_id", type=int, choices=(1, 2, 3))
    task.add_argument("--out", default=".", help="output directory")
    task.add_argument("--seed", type=int, default=0,
                      help="reorders the instances inside each phase of the task's "
                           "curricula; changes no network, CSV or SVG output")

    export = sub.add_parser("export", help="export the matrix or cluster order")
    export.add_argument("what", choices=("matrix", "clusters"))
    export.add_argument("--network", required=True)
    export.add_argument("--out", required=True, help="output file")

    return parser


def _resolve_concept(net: ConceptNetwork, name: str):
    nodes = net.named(name)
    if not nodes:
        raise KeyError(f"unknown concept {name!r}")
    # prefer the category reading for similarity-style queries
    for node in nodes:
        if node.kind == CATEGORY:
            return node
    return nodes[0]


def _vector_for(net, matrix, name: str):
    node = _resolve_concept(net, name)
    if node.kind == CATEGORY:
        members = net.members_of(node)
        if members:
            return category_vector(matrix, node, members)
    return concept_vector(matrix, node)


def _cmd_learn(args) -> int:
    if args.curriculum.startswith("builtin:"):
        curriculum = builtin_curriculum(args.curriculum[len("builtin:"):], seed=args.seed)
    else:
        curriculum = load_curriculum(args.curriculum)
    net = ConceptNetwork()
    trace_lines: list[str] = []

    def on_report(i, report):
        if args.trace:
            trace_lines.append(report.to_json_line(i))
        for miss in report.mismatches:
            print(f"instance {i}: scene mismatch: {miss}", file=sys.stderr)

    learn_curriculum(net, curriculum, on_report=on_report)
    save_network(net, args.network)
    if args.trace:
        Path(args.network + ".trace.jsonl").write_text(
            "\n".join(trace_lines) + ("\n" if trace_lines else ""), encoding="utf-8")
    print(f"learned {len(curriculum.instances)} instances -> "
          f"{len(net)} concepts, {net.edge_count()} edges", file=sys.stderr)
    return EXIT_OK


def _cmd_query(args) -> int:
    net = load_network(args.network)
    node = _resolve_concept(net, args.concept)
    for target, label, weight in net.neighbors(node):
        print(f"{target.name} {label} {weight:.6f}")
    if node.kind == CATEGORY:
        for member in net.members_of(node):
            print(f"member {member.name}")
    return EXIT_OK


def _cmd_similar(args) -> int:
    net = load_network(args.network)
    matrix = build_matrix(net)
    u = _vector_for(net, matrix, args.concept_a)
    v = _vector_for(net, matrix, args.concept_b)
    print(f"{cosine_similarity(u, v):.6f}")
    return EXIT_OK


def _cmd_run_task(args) -> int:
    result = run_task(args.task_id, seed=args.seed)
    paths = write_task_outputs(result, args.out)
    for name, ok in result.checks:
        print(f"task {result.task_id} check: {'PASS' if ok else 'FAIL'} - {name}")
    print(f"task {result.task_id}: {'PASS' if result.passed else 'FAIL'} "
          f"({', '.join(str(p) for p in paths)})")
    return EXIT_OK if result.passed else EXIT_FAIL


def _cmd_export(args) -> int:
    net = load_network(args.network)
    matrix = build_matrix(net)
    if args.what == "matrix":
        text = matrix_to_csv(matrix)
    else:
        leaves, tree = agglomerative_order(matrix)
        text = clusters_to_text(leaves, tree)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "learn": _cmd_learn,
        "query": _cmd_query,
        "similar": _cmd_similar,
        "run-task": _cmd_run_task,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, FormatError, UnlearnableGeneric, KeyError, ValueError) as err:
        message = err.args[0] if err.args else err
        print(f"wugnet: error: {message}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as err:
        print(f"wugnet: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
