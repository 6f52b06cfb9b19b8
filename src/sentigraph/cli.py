"""Command-line interface.

Subcommands: ``stats``, ``convert``, ``train``, ``predict``, ``evaluate``,
and ``pipeline`` (filter, optionally up-sample, train both stages, predict,
aggregate, evaluate, all driven by a JSON config). Exit codes: 0 success,
2 bad input (any ``InputError``, a flag the subcommand does not read
included), 1 an output that could not be written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Mapping, Optional, Sequence

from . import aggregator, corpus, metrics, relation, span_codec, taggers
from .corpus import Dataset, OverlapPolicy
from .errors import InputError, ValidationError, check_field, check_type
from .metrics import Stratum
from .relation import RelationConfig
# Not called here; benchmark/test_benchmark.py checks that its tracer restores cli.decode.
from .span_codec import decode  # noqa: F401
from .taggers import TaggerConfig


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------


@dataclass
class PipelineConfig:
    train: str
    test: str
    output_dir: str
    dev: Optional[str] = None
    overlap_policy: str = "DROP_SENTENCE"
    upsample: bool = False
    upsample_seed: int = 0
    tagger: TaggerConfig = field(default_factory=TaggerConfig)
    relation: RelationConfig = field(default_factory=RelationConfig)

    def __post_init__(self):
        for name, kind in (("train", str), ("test", str), ("output_dir", str),
                           ("dev", type(None) if self.dev is None else str), ("overlap_policy", str),
                           ("upsample", bool), ("upsample_seed", int),
                           ("tagger", TaggerConfig), ("relation", RelationConfig)):
            check_type(name, getattr(self, name), kind)
        check_field("overlap_policy", self.overlap_policy in OverlapPolicy.__members__,
                    f"unknown policy {self.overlap_policy!r}")


def _known(obj: dict, config: type, where: str) -> dict:
    """``obj``, each of whose keys must name a field of ``config`` (so a misspelt one is refused)."""
    names = {f.name for f in fields(config)}
    for key in obj:
        check_field(where + key, key in names, "unknown field")
    return obj


def load_config(path: str) -> PipelineConfig:
    """The config in a JSON file; the class that declares a field checks its value."""
    obj = corpus.read_json_object(path)
    for key in ("train", "test", "output_dir"):
        check_field(key, key in obj, "missing")
    _known(obj, PipelineConfig, "")
    for key, config in (("tagger", TaggerConfig), ("relation", RelationConfig)):
        check_type(key, obj.setdefault(key, {}), dict)
        obj[key] = config(**_known(obj[key], config, key + "."))
    cfg = PipelineConfig(**obj)
    for key, value in (("train", cfg.train), ("test", cfg.test), ("dev", cfg.dev)):
        check_field(key, value is None or os.path.isfile(value), f"file not found: {value}")
    return cfg


# ---------------------------------------------------------------------------
# Shared stage helpers
# ---------------------------------------------------------------------------


def _filter_overlaps(ds: Dataset, policy: str, what: str) -> Dataset:
    """Apply an overlap policy by name (``none`` keeps ``ds``); list affected ids on stderr."""
    if policy.lower() == "none":
        return ds
    chosen = OverlapPolicy[policy.upper()]
    ds, affected = corpus.filter_overlapping(ds, chosen)
    if affected:
        print(
            f"overlap filter ({chosen.value}) affected {len(affected)} {what}: "
            f"{', '.join(affected)}",
            file=sys.stderr,
        )
    return ds


def _train_tagger(cfg: TaggerConfig, train_ds: Dataset) -> taggers.TaggerModel:
    if cfg.kind == "PERCEPTRON":
        return taggers.train_perceptron(train_ds, epochs=cfg.epochs, seed=cfg.seed)
    return taggers.TaggerModel(taggers.TaggerKind[cfg.kind], pos_map=cfg.pos_map)


def _train_relation(cfg: RelationConfig, train_ds: Dataset) -> relation.RelationModel:
    if cfg.kind == "ALWAYS_TRUE":
        return relation.RelationModel(relation.RelationKind.ALWAYS_TRUE, threshold=cfg.threshold)
    instances = [inst for s in train_ds.sentences for inst in relation.gold_instances(s)]
    model = relation.train_logistic(
        instances,
        train_ds,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        seed=cfg.seed,
    )
    return replace(model, threshold=cfg.threshold)


def _predict(
    ds: Dataset,
    tagger_model: Optional[taggers.TaggerModel],
    relation_model: relation.RelationModel,
    external_tags: Optional[Mapping[str, Sequence[str]]] = None,
):
    """``aggregator.end_to_end`` over a dataset.

    Returns (tags by id, graphs by id, scored instance rows).
    """
    tags: Dict[str, tuple] = {}
    graphs: Dict[str, aggregator.SentimentGraph] = {}
    rows = []
    for sentence in ds.sentences:
        labels = None if external_tags is None else external_tags[sentence.id]
        tags[sentence.id], graphs[sentence.id], scored = aggregator.end_to_end(
            sentence, tagger_model, relation_model, labels
        )
        rows.extend(scored)
    return tags, graphs, rows


def _write_predictions(out_dir: str, prefix: str, ds: Dataset, tags, graphs, rows) -> None:
    """Write a split's predicted tags, graphs, triples and scored instances
    under ``out_dir``, each file name starting with ``prefix``."""
    out = os.path.join(out_dir, prefix)
    taggers.save_predictions_conll(out + "predictions.conll", ds, tags)
    corpus.save_dataset(aggregator.graphs_to_dataset(ds, graphs), out + "graphs.json")
    aggregator.write_triples(out + "triples.jsonl", [graphs[s.id] for s in ds.sentences])
    relation.dump_instances(out + "instances.jsonl", rows)


def _score(ds: Dataset, tags, graphs, strata: bool, as_json: bool = False,
           output: Optional[str] = None) -> str:
    """Report on predictions per stratum (all, then single/multi-target with ``strata``):
    write the report JSON to ``output`` if given, print it or the table; return the table."""
    wanted = [Stratum.ALL] + ([Stratum.SINGLE_TARGET, Stratum.MULTI_TARGET] if strata else [])
    reports = [metrics.stratified_report(ds, pred_tags=tags, pred_graphs=graphs, stratum=stratum)
               for stratum in wanted]
    payload = {"reports": [r.to_dict() for r in reports]}
    if output:
        corpus.write_json_object(output, payload)
    table = metrics.format_report_table(reports)
    print(json.dumps(payload, **corpus.JSON_FORMAT) if as_json else table)
    return table


def run_pipeline(cfg: PipelineConfig) -> None:
    """Execute the full pipeline, writing every artifact under ``cfg.output_dir``.
    The test split and the optional dev split (its files prefixed ``dev_``)
    are each predicted, written and scored the same way."""
    def load(path: str, what: str) -> Dataset:
        ds = corpus.load_dataset(path)
        return _filter_overlaps(ds, cfg.overlap_policy, f"{what} sentence(s)")

    train_f = load(cfg.train, "training")
    splits = [("", load(cfg.test, "test"))]
    if cfg.dev is not None:
        splits.append(("dev_", load(cfg.dev, "dev")))
    if cfg.upsample:
        train_f = corpus.upsample(train_f, cfg.upsample_seed)

    tagger_model = _train_tagger(cfg.tagger, train_f)
    relation_model = _train_relation(cfg.relation, train_f)

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    taggers.save_model(tagger_model, os.path.join(out, "tagger_model.json"))
    relation.save_model(relation_model, os.path.join(out, "relation_model.json"))

    for prefix, ds in splits:
        tags, graphs, rows = _predict(ds, tagger_model, relation_model)
        _write_predictions(out, prefix, ds, tags, graphs, rows)
        table = _score(ds, tags, graphs, True, output=os.path.join(out, prefix + "report.json"))
        with corpus.replacing(os.path.join(out, prefix + "report.txt")) as fh:
            fh.write(table + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_stats(args) -> int:
    datasets = [corpus.load_dataset(path) for path in args.datasets]
    payload = [{"dataset": ds.name, **corpus.compute_stats(ds)} for ds in datasets]
    if len(datasets) > 1:
        pooled = corpus.compute_stats(sentence for ds in datasets for sentence in ds)
        payload.append({"dataset": "pooled", **pooled})
    if args.format == "json":
        print(json.dumps(payload, **corpus.JSON_FORMAT))
    else:
        columns = [key for key in payload[0] if key != "label_group_counts"]
        table = [columns] + [
            [f"{row[c]:.2f}" if isinstance(row[c], float) else str(row[c]) for c in columns]
            for row in payload
        ]
        print(metrics.format_table(table))
        group_table = [("dataset", "labels_present", "sentences")]
        for row in payload:
            for k, v in row["label_group_counts"].items():
                group_table.append((row["dataset"], k, str(v)))
        print()
        print(metrics.format_table(group_table))
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        corpus.write_json_object(os.path.join(args.output_dir, "stats.json"), payload)
    return 0


def _cmd_convert(args) -> int:
    load = span_codec.load_conll if args.from_format == "conll" else corpus.load_dataset
    save = span_codec.save_conll if args.to_format == "conll" else corpus.save_dataset
    save(_filter_overlaps(load(args.input), args.overlap_policy, "sentence(s)"), args.output)
    return 0


def _cmd_train(args) -> int:
    if args.stage == "tagger":
        config, train, save = TaggerConfig, _train_tagger, taggers.save_model
    else:
        config, train, save = RelationConfig, _train_relation, relation.save_model
    flags = ("kind", "epochs", "learning_rate", "threshold", "seed")  # each a RelationConfig field
    given = {key: getattr(args, key) for key in flags if getattr(args, key) is not None}
    names = {f.name for f in fields(config)}
    for key in given:
        if key not in names:
            raise ValidationError(f"--{key.replace('_', '-')} applies only to 'train relation', "
                                  f"not 'train {args.stage}'")
    cfg = config(**given)
    ds = corpus.load_dataset(args.train)
    ds = _filter_overlaps(ds, args.overlap_policy, "sentence(s)")
    save(train(cfg, ds), args.out)
    return 0


def _cmd_predict(args) -> int:
    if bool(args.tagger_model) == bool(args.external_conll):
        raise ValidationError("predict needs exactly one of --tagger-model and --external-conll")
    ds = corpus.load_dataset(args.data)
    tagger_model = external = None
    if args.external_conll:
        external = taggers.load_external_predictions(args.external_conll, ds)
    else:
        tagger_model = taggers.load_model(args.tagger_model)
    relation_model = (relation.load_model(args.relation_model) if args.relation_model
                      else relation.RelationModel(relation.RelationKind.ALWAYS_TRUE))
    tags, graphs, rows = _predict(ds, tagger_model, relation_model, external)
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_predictions(out_dir, "", ds, tags, graphs, rows)
    return 0


def _cmd_evaluate(args) -> int:
    if not (args.pred_conll or args.pred_graphs):
        raise ValidationError("evaluate needs --pred-conll and/or --pred-graphs")
    gold = corpus.load_dataset(args.gold)
    ds = _filter_overlaps(gold, args.overlap_policy, "gold sentence(s)")
    # A predictions file may hold any gold sentence (predict tags every one,
    # pipeline those the overlap filter keeps) and must hold each kept one.
    tags = graphs = None
    if args.pred_conll:
        tags = taggers.load_external_predictions(args.pred_conll, gold, ds.sentences)
    if args.pred_graphs:
        graphs = aggregator.load_graphs(args.pred_graphs, gold, ds.sentences)
    _score(ds, tags, graphs, args.strata, args.format == "json", args.output)
    return 0


def _cmd_pipeline(args) -> int:
    run_pipeline(load_config(args.config))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_overlap_policy(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--overlap-policy", default=default, help="default: %(default)s",
                   choices=["none"] + [name.lower() for name in OverlapPolicy.__members__])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentigraph",
        description="Opinion extraction pipeline: span tagging, relation "
        "classification, sentiment-graph aggregation, and evaluation.",
    )
    parser.add_argument("--format", choices=("text", "json"), default=None)
    parser.add_argument("--output-dir", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset distribution statistics")
    p.add_argument("datasets", nargs="+", help="JSON dataset file(s)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("convert", help="convert between JSON and CoNLL")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--from", dest="from_format", choices=("json", "conll"), required=True)
    p.add_argument("--to", dest="to_format", choices=("json", "conll"), required=True)
    _add_overlap_policy(p, "none")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("train", help="train a tagger or relation model")
    p.add_argument("stage", choices=("tagger", "relation"))
    p.add_argument("--train", required=True, help="JSON training dataset")
    # Unset flags stay None and take the defaults of taggers.TaggerConfig and
    # relation.RelationConfig, which check every value given before data is read.
    p.add_argument("--kind", default=None, help="model kind (default: perceptron / logistic)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--train-seed", type=int, default=None, dest="seed")
    _add_overlap_policy(p, "drop_sentence")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run the pipeline with trained models")
    p.add_argument("--data", required=True, help="JSON dataset to tag")
    p.add_argument("--tagger-model", default=None)
    p.add_argument("--external-conll", default=None, help="pre-tagged CoNLL predictions")
    p.add_argument("--relation-model", default=None, help="default: always-true baseline")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred-conll", default=None, help="stage-1 predictions (CoNLL)")
    p.add_argument("--pred-graphs", default=None, help="stage-3 predictions (dataset JSON)")
    p.add_argument("--strata", action="store_true", help="also report single/multi-target strata")
    _add_overlap_policy(p, "drop_sentence")
    p.add_argument("--output", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full pipeline from a JSON config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The cyclic collector is off while a command runs, and the caller's
    # setting comes back after. Reference counting frees all that a command
    # makes but argparse's parser (a few hundred objects in cycles), so the
    # collector would find almost nothing; it would spend about a tenth of a
    # predict rescanning the tokens, spans and sets of the loaded datasets.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if collecting:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    try:  # first refuse a global flag that the subcommand would not read
        for flag, value, readers in (("--format", args.format, ("stats", "evaluate")),
                                     ("--output-dir", args.output_dir, ("stats", "predict"))):
            if value is not None and args.command not in readers:
                raise ValidationError(f"{flag} applies only to '{readers[0]}' and "
                                      f"'{readers[1]}', not '{args.command}'")
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as err:  # every file writer raises ValidationError instead
        bad = err.object[err.start:err.end]
        # No encoding can print a lone surrogate, so only other characters get the hint.
        surrogate = any("\ud800" <= ch <= "\udfff" for ch in bad)
        hint = "" if surrogate else "; try PYTHONIOENCODING=utf-8"
        print(f"error: standard output's encoding {err.encoding} cannot print {bad!r}{hint}",
              file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
