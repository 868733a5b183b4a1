"""Command-line driver: build, query, eval, bench, inspect.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Diagnostics go to stderr; data output goes to stdout or ``--out``.
``--encoder trigram`` builds at ``DEFAULT_EMBED_DIM``; a ``file:``
encoder takes its vector length from its file and must cover every
label key. ``query`` and ``eval`` take the vector length from the index.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .corpus import _is_text, load_corpus, load_queries
from .embedding import (
    DEFAULT_EMBED_DIM,
    DEFAULT_TAU,
    PrecomputedVectorEncoder,
    TrigramEncoder,
    check_encoder_identity,
    load_precomputed_vectors,
)
from .errors import EncoderMismatch, HyperRagError, IoFailure, NoQueries, UnencodableText
from .evaluation import bench_latency, eval_recall, format_bench_csv
from .hypercube import _check_dimensions, build_index, cell_documents, load_index, lookup, save_index
from .labeling import (
    CANONICAL_DIMENSIONS,
    LabelAssignment,
    extract_all,
    load_gazetteer,
    load_precomputed_labels,
    normalize_label,
)
from .retrieval import DEFAULT_K, ExternalDecompositions, format_result, result_to_dict, retrieve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2 by default; we want 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        # argparse swallows a failed write; flushed here, --help and --version into a closed stdout reach main.
        print(message, end="", file=file or sys.stderr, flush=True)


def _encoder_flag(value: str) -> str:
    """An ``--encoder`` value, checked for its form before any file is read."""
    if value == "trigram" or (value.startswith("file:") and len(value) > len("file:")):
        return value
    raise argparse.ArgumentTypeError(f"expected 'trigram' or 'file:<vectors.jsonl>', got {value!r}")


def _add_encoder_flags(parser: argparse.ArgumentParser, *, tau: bool) -> None:
    parser.add_argument(
        "--encoder", type=_encoder_flag, default="trigram", help="'trigram' or 'file:<vectors.jsonl>' (default: trigram)"
    )
    if tau:
        parser.add_argument("--tau", type=float, default=DEFAULT_TAU)


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:
        raise _usage(f"--tau must lie in [0, 1], got {tau}")


def _make_encoder(args, trigram_dim: int = DEFAULT_EMBED_DIM, vocab: Iterable[Iterable[str]] = ()):
    """The ``--encoder`` encoder: trigram at ``trigram_dim``, or ``file:`` at its file's length, covering ``vocab``."""
    if args.encoder == "trigram":
        return TrigramEncoder(dim=trigram_dim)
    return PrecomputedVectorEncoder(load_precomputed_vectors(args.encoder[len("file:") :], set().union(*vocab)))


def _index_encoder(args, ix):
    """The query encoder for ``ix``, which must match the index's name and vector length (EncoderMismatch if none).

    A ``file:`` encoder's name is checked before its vectors file is
    read, so a file for an index built with another encoder fails as that
    mismatch, not on a key the file lacks; its length is checked after.
    """
    if ix.label_vectors is None:
        raise EncoderMismatch(f"{args.index} was built without an encoder and holds no label vectors; rebuild it")
    dim = ix.label_vectors.dim
    if args.encoder.startswith("file:"):
        check_encoder_identity(ix, PrecomputedVectorEncoder.name, dim)
    encoder = _make_encoder(args, dim, ix.vocab.values())
    check_encoder_identity(ix, encoder.name, encoder.dim)
    return encoder


def _load_queries(path: str):
    """The queries of ``path``; a file holding none is a data error."""
    queries = load_queries(path)
    if not queries:
        raise NoQueries(path)
    return queries


def _usage(message: str) -> SystemExit:
    print(f"hyperrag: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _check_k(k: int) -> None:
    if k < 1:
        raise _usage(f"--k must be >= 1, got {k}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
    else:
        print(text, flush=True)  # so a closed stdout fails here, not at interpreter exit


def _cmd_build(args) -> int:
    dimensions = CANONICAL_DIMENSIONS + tuple(args.dimensions or ())
    try:
        _check_dimensions(dimensions)
    except ValueError as exc:
        raise _usage(f"--dimensions: {exc}") from None
    if not args.gazetteer and not args.labels:
        raise _usage("build needs --gazetteer and/or --labels")
    corpus = load_corpus(args.corpus)
    labels = LabelAssignment()
    if args.gazetteer:
        labels = extract_all(corpus, load_gazetteer(args.gazetteer))
    for labels_path in args.labels or ():
        load_precomputed_labels(labels_path, corpus, into=labels)
    ix = build_index(corpus, labels, dimensions=dimensions, encoder=_make_encoder(args))
    save_index(ix, args.out)
    print(
        f"indexed {ix.doc_count} documents, {ix.label_key_count()} label keys "
        f"across {len(ix.dimensions)} dimensions -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_query(args) -> int:
    _check_k(args.k)
    _check_tau(args.tau)
    # The query is echoed in every output, which only valid Unicode text can be written as.
    if not _is_text(args.query):
        raise UnencodableText(args.query, reason="it holds bytes that are not UTF-8")
    ix = load_index(args.index)
    encoder = _index_encoder(args, ix)
    external = None
    if args.decomposition:
        external = ExternalDecompositions.load(args.decomposition).for_query("", args.query)
        if external is None:
            raise IoFailure(f"{args.decomposition}: the decomposition file holds no entry for the query {args.query!r}")
    result = retrieve(args.query, ix, encoder, tau=args.tau, k=args.k, external=external)
    if args.json:
        _emit(json.dumps(result_to_dict(result), sort_keys=True, ensure_ascii=False), args.out)
    else:
        _emit(format_result(result, explain=args.explain), args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_k(args.k)
    _check_tau(args.tau)
    ix = load_index(args.index)
    encoder = _index_encoder(args, ix)
    queries = _load_queries(args.queries)
    report = eval_recall(ix, encoder, queries, k=args.k, tau=args.tau)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=False), args.out)
    recalls = " ".join(f"recall@{k}={v:.3f}" for k, v in sorted(report.recall_at.items()))
    print(f"{len(report.rows)} queries: {recalls} mrr={report.mrr:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args) -> int:
    _check_k(args.k)
    _check_tau(args.tau)
    if args.reps < 1:
        raise _usage(f"--reps must be >= 1, got {args.reps}")
    if args.noise < 0:
        raise _usage(f"--noise must be >= 0, got {args.noise}")
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f]
    except ValueError:
        raise _usage(f"bad --fractions value {args.fractions!r}")
    if not fractions or any(not 0.0 < f <= 1.0 for f in fractions):
        raise _usage(f"fractions must lie in (0, 1]: {args.fractions!r}")
    corpus = load_corpus(args.corpus)
    if not corpus:
        raise IoFailure(f"{args.corpus}: the corpus file holds no document, so there is nothing to time")
    gazetteer = load_gazetteer(args.gazetteer)
    queries = _load_queries(args.queries)
    rows = bench_latency(
        corpus,
        gazetteer,
        queries,
        fractions=fractions,
        noise=args.noise,
        repetitions=args.reps,
        tau=args.tau,
        k=args.k,
        encoder=_make_encoder(args),
    )
    _emit(format_bench_csv(rows), args.out)
    if args.out:
        print(f"wrote {len(rows)} rows -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _check_dimension(ix, dim: str) -> None:
    if dim not in ix.dimensions:
        raise _usage(f"the index has no dimension {dim!r}; its dimensions are {', '.join(ix.dimensions)}")


def _cmd_inspect(args) -> int:
    if args.label is not None and not args.dim:
        raise _usage("--label needs --dim")
    summary = args.label is None and args.cell is None
    if args.cell is not None and args.dim is not None:
        raise _usage("--cell names its own dimensions; drop --dim")
    if args.verbose and not summary:
        raise _usage("--verbose applies only to the summary, not to --label or --cell")
    if args.json and summary:
        raise _usage("--json needs --label or --cell; the summary is plain text only")
    ix = load_index(args.index)
    if args.dim is not None:
        _check_dimension(ix, args.dim)
    # Labels are normalized as build and query normalize them.
    if args.label is not None:
        key = normalize_label(args.label)
        if not key:
            raise _usage(f"--label {args.label!r} is a blank label")
        postings = lookup(ix, args.dim, key)
        if args.json:
            payload = [{"doc_id": p.doc_id, "count": p.count} for p in postings]
            _emit(json.dumps(payload, sort_keys=True), args.out)
        else:
            _emit("\n".join(f"{p.doc_id}\t{p.count}" for p in postings) if postings else "(empty)", args.out)
        return EXIT_OK
    if args.cell is not None:
        coords = {}
        for part in args.cell.split(","):
            if "=" not in part:
                raise _usage(f"bad --cell coordinate {part!r}; expected DIM=label")
            dim, label = part.split("=", 1)
            _check_dimension(ix, dim)
            if dim in coords:
                raise _usage(f"--cell gives dimension {dim!r} twice; a cell has one coordinate per dimension")
            coords[dim] = normalize_label(label)
            if not coords[dim]:
                raise _usage(f"--cell coordinate {part!r} has a blank label")
        docs = cell_documents(ix, coords)
        _emit(json.dumps(docs) if args.json else "\n".join(docs) if docs else "(empty)", args.out)
        return EXIT_OK
    # Default: per-dimension vocabulary summary.
    lines = [f"documents: {ix.doc_count}"]
    for dim in ix.dimensions:
        lines.append(f"{dim}: {len(ix.vocab[dim])} labels")
        if args.dim == dim or args.verbose:
            for key, postings in ix.inverted[dim].items():
                lines.append(f"  {key}: {', '.join(f'{p.doc_id}:{p.count}' for p in postings)}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperrag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hyperrag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build", help="index a corpus")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--labels", action="append", help="precomputed labels file (repeatable)")
    p_build.add_argument("--gazetteer")
    p_build.add_argument("--dimensions", nargs="*", help="extension dimension names (upper-case)")
    p_build.add_argument("--out", required=True)
    _add_encoder_flags(p_build, tau=False)
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="run one query against an index")
    p_query.add_argument("--index", required=True)
    p_query.add_argument("--query", required=True)
    p_query.add_argument("--k", type=int, default=DEFAULT_K)
    p_query.add_argument("--decomposition", help="external decomposition file")
    p_query.add_argument("--explain", action="store_true")
    p_query.add_argument("--json", action="store_true")
    p_query.add_argument("--out")
    _add_encoder_flags(p_query, tau=True)
    p_query.set_defaults(func=_cmd_query)

    p_eval = sub.add_parser("eval", help="recall/MRR against gold doc ids")
    p_eval.add_argument("--index", required=True)
    p_eval.add_argument("--queries", required=True)
    p_eval.add_argument("--k", type=int, default=DEFAULT_K)
    p_eval.add_argument("--out")
    _add_encoder_flags(p_eval, tau=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="latency vs corpus size")
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument("--gazetteer", required=True)
    p_bench.add_argument("--queries", required=True)
    p_bench.add_argument("--fractions", default="0.125,0.25,0.5,1")
    p_bench.add_argument("--noise", type=int, default=0)
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--k", type=int, default=DEFAULT_K)
    p_bench.add_argument("--out")
    _add_encoder_flags(p_bench, tau=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_inspect = sub.add_parser("inspect", help="peek inside an index")
    p_inspect.add_argument("--index", required=True)
    p_inspect.add_argument("--dim")
    label_or_cell = p_inspect.add_mutually_exclusive_group()
    label_or_cell.add_argument("--label")
    label_or_cell.add_argument("--cell", help="comma-separated DIM=label coordinates")
    p_inspect.add_argument("--verbose", action="store_true")
    p_inspect.add_argument("--json", action="store_true")
    p_inspect.add_argument("--out")
    p_inspect.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    except HyperRagError as exc:
        print(f"hyperrag: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # The reader of stdout left (e.g. `| head -1`). Point stdout at devnull, so
        # the interpreter's own flush at exit does not report the pipe again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:  # a stream with no file descriptor, as when main runs in-process
            pass
        print("hyperrag: stdout was closed before all output was written", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"hyperrag: internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
