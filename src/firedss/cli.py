"""Operator command line: one subcommand per capability.

    firedss convert      CSV -> RDF (N-Triples or RDF-XML)
    firedss preprocess   apply an ordered list of dataset transforms
    firedss stream       run the micro-batch alert pipeline
    firedss query        run a query file against a graph file
    firedss metrics      ontology metrics from a graph or a counts JSON
    firedss rules-check  parse a rule file and report problems
    firedss retrieve     cosine top-k over a JSON-lines corpus
    firedss eval         precision/recall/F of a response vs a reference
    firedss bands        print or check danger-class band configuration

Exit codes: 0 success, 1 runtime/domain error, 2 usage error. A flat
key = value config file (--config, each key once) supplies defaults;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__, fwi, ingest, metrics, retrieval, rules, semweb, stream
from ._syntax import key_values

CONFIG_KEYS = ("dataset", "rules", "bands", "corpus", "checkpoint", "sink",
               "batch_size", "aggregate", "embed_dim", "seed")
_INTEGER_KEYS = ("batch_size", "embed_dim", "seed")
_INTEGER = re.compile(r"[+-]?[0-9]+")


class CliError(Exception):
    """Domain error surfaced to the operator with exit code 1."""


def load_config(path):
    """Flat key = value lines, # comments, each key at most once; the
    batch_size, embed_dim and seed values are ints of ASCII digits."""
    def fail(lineno, message):
        return CliError(f"{path}:{lineno}: {message}")
    config = {}
    for lineno, key, value in key_values(_read(path), fail):
        if key not in CONFIG_KEYS:
            raise fail(lineno, f"unknown config key {key!r}")
        value = value.strip()
        if key in _INTEGER_KEYS:
            if not _INTEGER.fullmatch(value):
                raise fail(lineno, f"{key} must be an integer, got {value!r}")
            value = int(value)
        config[key] = value
    return config


def _integer(text):
    """argparse type of an integer flag: ASCII digits with an optional sign
    (int() also reads other Unicode digits and underscores)."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _setting(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _read(path, newline=None):
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise CliError(f"cannot read {path}: line {line}: {exc}") from None


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _load_bands(args, config):
    path = _setting(args, config, "bands")
    return fwi.load_bands(_read(path)) if path else fwi.DEFAULT_BANDS


# --- subcommands ---------------------------------------------------------------

def cmd_convert(args, config):
    # newline="": a dataset's CRs are the CSV reader's, as they are in a stream
    dataset = ingest.parse_dataset(_read(args.input, newline=""))
    graph = semweb.csv_to_graph(dataset, args.namespace)
    _write(args.output, semweb.serialize(graph, args.format))
    print(f"{len(graph)} triples -> {args.output}")
    return 0


_PREPROCESS_OPS = ("log1p_area", "zscore", "onehot", "ordinal", "filter", "resample")


def _apply_op(dataset, op_text, seed):
    name, _, arg = op_text.partition("=")
    if name == "log1p_area":
        return ingest.log_transform_area(dataset)
    if name == "zscore":
        cols = arg.split(",") if arg else list(dataset.numeric_columns())
        out, _params = ingest.zscore_normalize(dataset, cols)
        return out
    if name == "onehot":
        cols = arg.split(",") if arg else ["month", "day"]
        return ingest.one_hot_encode(dataset, cols)
    if name == "ordinal":
        cols = arg.split(",") if arg else ["month", "day"]
        return ingest.ordinal_encode(dataset, cols)
    if name == "filter":
        parts = arg.split(":")
        if not parts or not parts[0]:
            raise CliError("filter needs filter=<column>[:<method>[:<threshold>]]")
        column = parts[0]
        method = parts[1] if len(parts) > 1 else "zscore"
        threshold = float(parts[2]) if len(parts) > 2 else None
        return ingest.filter_outliers(dataset, column, method, threshold)
    if name == "resample":
        parts = arg.split(":")
        if not parts or not parts[0]:
            raise CliError("resample needs resample=<column>[:<strategy>]")
        column = parts[0]
        strategy = parts[1] if len(parts) > 1 else "oversample"
        return ingest.resample(dataset, column, strategy, seed)
    raise CliError(f"unknown preprocess op {name!r} (known: {', '.join(_PREPROCESS_OPS)})")


def cmd_preprocess(args, config):
    dataset = ingest.parse_dataset(_read(args.input, newline=""))
    seed = _setting(args, config, "seed", 0)
    for op_text in args.op or []:
        dataset = _apply_op(dataset, op_text, seed)
    _write(args.output, ingest.serialize_csv(dataset))
    if args.provenance:
        _write(args.provenance, dataset.provenance_json() + "\n")
    print(f"{len(dataset)} rows, {len(dataset.schema)} columns -> {args.output}")
    return 0


def cmd_stream(args, config):
    dataset = _setting(args, config, "dataset")
    sink = _setting(args, config, "sink")
    if not dataset or not sink:
        raise CliError("stream needs a dataset and a sink (flags or config)")
    rules_path = _setting(args, config, "rules")
    rules_text = _read(rules_path) if rules_path else ""
    ruleset = rules.parse_rules(rules_text) if rules_text else None
    bands = _load_bands(args, config)
    stats = stream.run_pipeline(
        dataset, sink,
        checkpoint_path=_setting(args, config, "checkpoint"),
        batch_size=_setting(args, config, "batch_size", 20),
        bands=bands, rules=ruleset, rules_text=rules_text,
        aggregate=_setting(args, config, "aggregate", "max"))
    print(stats.to_json())
    return 0


def cmd_query(args, config):
    graph = semweb.parse_ntriples(_read(args.graph))
    query = semweb.parse_query(_read(args.query))
    result = semweb.execute(query, graph)
    if args.json:
        out = {
            "columns": list(result.columns),
            "rows": [[semweb.format_cell(c) for c in row] for row in result.rows],
            "type_clashes": result.type_clashes,
        }
        if args.explain:
            out["plan"] = [{"pattern": i + 1, "candidates": candidates, "bindings": n}
                           for i, candidates, n in result.plan]
        print(json.dumps(out, sort_keys=True))
    else:
        if args.explain:
            for step, (i, candidates, n) in enumerate(result.plan, 1):
                print(f"# step {step}: pattern {i + 1} "
                      f"[{_pattern_text(query.patterns[i])}] "
                      f"candidates={candidates} bindings={n}")
        print("\t".join(result.columns))
        for row in result.rows:
            print("\t".join(semweb.format_cell(c) for c in row))
    return 0


def _pattern_text(pattern):
    return " ".join(f"?{t.name}" if isinstance(t, semweb.Var) else semweb.format_cell(t)
                    for t in (pattern.subject, pattern.predicate, pattern.object))


def cmd_metrics(args, config):
    if bool(args.graph) == bool(args.counts):
        raise CliError("metrics needs exactly one of --graph or --counts")
    if args.graph:
        summary = metrics.summarize(semweb.parse_ntriples(_read(args.graph)))
    else:
        try:
            raw = json.loads(_read(args.counts))
            summary = metrics.OntologySummary(**raw)
        except (RecursionError, TypeError, ValueError) as exc:
            raise CliError(f"bad counts file: {exc}") from None
    print(json.dumps(metrics.report(summary), indent=2, sort_keys=True))
    return 0


def cmd_rules_check(args, config):
    ruleset = rules.parse_rules(_read(args.rules))
    for rule in ruleset:
        body = len(rule.body)
        print(f"{rule.name}: {body} body atom{'s' if body != 1 else ''}, "
              f"{len(rule.head)} head")
    print(f"{len(ruleset)} rules OK")
    return 0


def cmd_retrieve(args, config):
    corpus = _setting(args, config, "corpus")
    if not corpus:
        raise CliError("retrieve needs a corpus (flag or config)")
    dim = _setting(args, config, "embed_dim", 256)
    index = retrieval.load_corpus(_read(corpus), retrieval.EmbedderConfig(dimension=dim))
    for doc, score in index.search(args.query, k=args.k):
        print(f"{score:.6f}\t{doc.id}\t{doc.text}")
    return 0


def cmd_eval(args, config):
    scores = retrieval.prf_scores(_read(args.response), _read(args.reference))
    print(json.dumps({"precision": scores.precision, "recall": scores.recall,
                      "f": scores.f_measure}, sort_keys=True))
    return 0


def cmd_bands(args, config):
    if args.action == "print":
        bands = _load_bands(args, config)
        sys.stdout.write(fwi.dump_bands(bands))
        return 0
    path = _setting(args, config, "bands")
    if not path:
        raise CliError("bands check needs --bands or a config entry")
    fwi.load_bands(_read(path))
    print(f"{path} OK")
    return 0


# --- parser --------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="firedss",
        description="Forest-fire decision support: indices, rules, streams, queries.")
    parser.add_argument("--version", action="version", version=f"firedss {__version__}")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="CSV dataset to RDF")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--format", choices=("ntriples", "rdfxml"), default="ntriples")
    p.add_argument("--namespace", default="http://example.org/forestfires#")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("preprocess", help="apply dataset transforms in order")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--op", action="append", metavar="OP",
                   help="log1p_area | zscore[=cols] | onehot[=cols] | "
                        "ordinal[=cols] | filter=col[:method[:t]] | "
                        "resample=col[:strategy] (repeatable, applied in order)")
    p.add_argument("--provenance", help="write the provenance trail as JSON")
    p.add_argument("--seed", type=_integer)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("stream", help="run the micro-batch alert pipeline")
    p.add_argument("--dataset", help="file path, file:<path>[?rate=N], socket:host:port, or -")
    p.add_argument("--sink", help="JSON-lines alert output (appended)")
    p.add_argument("--checkpoint")
    p.add_argument("--rules")
    p.add_argument("--bands")
    p.add_argument("--batch-size", dest="batch_size", type=_integer)
    p.add_argument("--aggregate", choices=("max", "mean"))
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("query", help="run a query file against an N-Triples graph")
    p.add_argument("graph")
    p.add_argument("query")
    p.add_argument("--json", action="store_true")
    p.add_argument("--explain", action="store_true",
                   help="also print the join order with per-pattern "
                        "candidate and binding counts")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("metrics", help="ontology schema metrics report")
    p.add_argument("--graph", help="N-Triples file with schema vocabulary")
    p.add_argument("--counts", help="JSON file with summary counts")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("rules-check", help="parse a rule file and report")
    p.add_argument("rules")
    p.set_defaults(fn=cmd_rules_check)

    p = sub.add_parser("retrieve", help="cosine top-k over a corpus")
    p.add_argument("query")
    p.add_argument("--corpus")
    p.add_argument("-k", type=_integer, default=2)
    p.add_argument("--embed-dim", dest="embed_dim", type=_integer)
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("eval", help="P/R/F of a response file vs a reference file")
    p.add_argument("response")
    p.add_argument("reference")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bands", help="print or check band configuration")
    p.add_argument("action", choices=("print", "check"))
    p.add_argument("--bands")
    p.set_defaults(fn=cmd_bands)

    return parser


# the other modules' errors are ValueErrors (metrics.report catches its own)
_DOMAIN_ERRORS = (CliError, stream.StreamError, ValueError, OSError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else {}
        return args.fn(args, config)
    except _DOMAIN_ERRORS as exc:
        print(f"firedss: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
