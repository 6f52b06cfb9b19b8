"""Command-line interface.

Subcommands: ``stats``, ``convert``, ``train``, ``predict``, ``evaluate``,
and ``pipeline`` (filter, optionally up-sample, train both stages, predict,
aggregate, evaluate, all driven by a JSON config). Exit codes: 0 success,
1 runtime stage failure, 2 input or configuration validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence

from . import aggregator, corpus, metrics, relation, span_codec, taggers
from .corpus import Dataset, OverlapPolicy
from .errors import ConfigError, InputError, SentigraphError, ValidationError
from .metrics import Stratum
# Not called here; benchmark/test_benchmark.py checks that its tracer restores cli.decode.
from .span_codec import decode  # noqa: F401


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool, problem: str) -> None:
    if not ok:
        raise ConfigError(f"config field '{name}': {problem}")


# The options of both stages are checked when they are built, so a config
# file and the ``train`` flags go through the same checks. The field
# defaults here are the only defaults of either.
@dataclass
class TaggerConfig:
    kind: str = "PERCEPTRON"
    epochs: int = 10
    seed: int = 1
    pos_map: Optional[Dict[str, str]] = None

    def __post_init__(self):
        self.kind = self.kind.upper()
        _check("tagger.kind", self.kind in taggers.TaggerKind.__members__,
               f"unknown kind {self.kind!r}")
        _check("tagger.epochs", self.epochs >= 0, "must be >= 0")
        _check("tagger.pos_map", self.pos_map is None or isinstance(self.pos_map, dict),
               "expected an object")


@dataclass
class RelationConfig:
    kind: str = "LOGISTIC"
    epochs: int = 30
    learning_rate: float = 0.5
    threshold: float = 0.5
    seed: int = 2

    def __post_init__(self):
        self.kind = self.kind.upper()
        _check("relation.kind", self.kind in relation.RelationKind.__members__,
               f"unknown kind {self.kind!r}")
        _check("relation.epochs", self.epochs >= 1, "must be >= 1")
        _check("relation.learning_rate", self.learning_rate > 0, "must be > 0")
        _check("relation.threshold", 0.0 < self.threshold < 1.0, "must be in (0, 1)")


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
        _check("overlap_policy", self.overlap_policy in OverlapPolicy.__members__,
               f"unknown policy {self.overlap_policy!r}")


def _present(obj: Mapping, types: Mapping[str, type], where: str) -> dict:
    """The keys of ``obj``, each named in ``types`` and type-checked (``object``
    takes any value and leaves the check to the config dataclass); absent
    keys are left out, so the config dataclasses supply their defaults. A key
    not in ``types`` is an error, so a misspelt or retired field is not
    silently ignored."""
    for key in obj:
        if key not in types:
            raise ConfigError(f"config field '{where}{key}': unknown field")
    out = {}
    for key, kind in types.items():
        if key not in obj:
            continue
        value = obj[key]
        if kind is float:
            value = corpus.finite_number(value, f"config field '{where}{key}'")
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ConfigError(
                f"config field '{where}{key}': expected {kind.__name__}, got {value!r}"
            )
        out[key] = value
    return out


def load_config(path: str) -> PipelineConfig:
    obj = corpus.read_json_object(path)
    for key in ("train", "test", "output_dir"):
        if key not in obj:
            raise ConfigError(f"config field '{key}': missing")
    top = _present(obj, {
        "train": str, "test": str, "output_dir": str, "dev": str, "overlap_policy": str,
        "upsample": bool, "upsample_seed": int, "tagger": dict, "relation": dict,
    }, "")
    tagger_obj = _present(top.pop("tagger", {}), {
        "kind": str, "epochs": int, "seed": int, "pos_map": object,
    }, "tagger.")
    rel_obj = _present(top.pop("relation", {}), {
        "kind": str, "epochs": int, "learning_rate": float, "threshold": float, "seed": int,
    }, "relation.")
    cfg = PipelineConfig(
        **top, tagger=TaggerConfig(**tagger_obj), relation=RelationConfig(**rel_obj)
    )
    for key, value in (("train", cfg.train), ("test", cfg.test), ("dev", cfg.dev)):
        if value is not None and not os.path.isfile(value):
            raise ConfigError(f"config field '{key}': file not found: {value}")
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
    if cfg.kind == "POS_CHUNK":
        return taggers.pos_chunk_tagger(cfg.pos_map)
    return taggers.most_common_tagger()


def _train_relation(cfg: RelationConfig, train_ds: Dataset) -> relation.RelationModel:
    if cfg.kind == "ALWAYS_TRUE":
        return relation.always_true_model(threshold=cfg.threshold)
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


def _write_predictions(out_dir: str, ds: Dataset, tags, graphs, rows) -> None:
    """Write a split's predicted tags, graphs, triples and scored instances."""
    taggers.save_predictions_conll(os.path.join(out_dir, "predictions.conll"), ds, tags)
    corpus.save_dataset(aggregator.graphs_to_dataset(ds, graphs),
                        os.path.join(out_dir, "graphs.json"))
    aggregator.write_triples(os.path.join(out_dir, "triples.jsonl"),
                             [graphs[s.id] for s in ds.sentences])
    relation.dump_instances(os.path.join(out_dir, "instances.jsonl"), rows)


def _reports(
    ds: Dataset,
    tags: Optional[Mapping[str, Sequence[str]]],
    graphs: Optional[Mapping[str, aggregator.SentimentGraph]],
    strata: bool,
) -> List[metrics.EvalReport]:
    wanted = [Stratum.ALL] + ([Stratum.SINGLE_TARGET, Stratum.MULTI_TARGET] if strata else [])
    return [
        metrics.stratified_report(ds, pred_tags=tags, pred_graphs=graphs, stratum=stratum)
        for stratum in wanted
    ]


def _report_payload(reports: Sequence[metrics.EvalReport]) -> dict:
    """The report file format: ``{"reports": [...]}``, one entry per stratum."""
    return {"reports": [r.to_dict() for r in reports]}


def run_pipeline(cfg: PipelineConfig) -> None:
    """Execute the full pipeline, writing every artifact under ``cfg.output_dir``."""
    train_ds = corpus.load_dataset(cfg.train)
    test_ds = corpus.load_dataset(cfg.test)
    train_f = _filter_overlaps(train_ds, cfg.overlap_policy, "training sentence(s)")
    test_f = _filter_overlaps(test_ds, cfg.overlap_policy, "test sentence(s)")
    if cfg.upsample:
        train_f = corpus.upsample(train_f, cfg.upsample_seed)

    tagger_model = _train_tagger(cfg.tagger, train_f)
    relation_model = _train_relation(cfg.relation, train_f)

    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    taggers.save_model(tagger_model, os.path.join(out, "tagger_model.json"))
    relation.save_model(relation_model, os.path.join(out, "relation_model.json"))

    tags, graphs, rows = _predict(test_f, tagger_model, relation_model)
    _write_predictions(out, test_f, tags, graphs, rows)

    reports = _reports(test_f, tags, graphs, True)
    corpus.write_json_object(os.path.join(out, "report.json"), _report_payload(reports))
    table = metrics.format_report_table(reports)
    with corpus.replacing(os.path.join(out, "report.txt")) as fh:
        fh.write(table + "\n")
    print(table)

    if cfg.dev is not None:
        dev_ds = corpus.load_dataset(cfg.dev)
        dev_f = _filter_overlaps(dev_ds, cfg.overlap_policy, "dev sentence(s)")
        dev_tags, dev_graphs, _rows = _predict(dev_f, tagger_model, relation_model)
        taggers.save_predictions_conll(os.path.join(out, "dev_predictions.conll"), dev_f, dev_tags)
        corpus.save_dataset(aggregator.graphs_to_dataset(dev_f, dev_graphs),
                            os.path.join(out, "dev_graphs.json"))
        dev_reports = _reports(dev_f, dev_tags, dev_graphs, True)
        corpus.write_json_object(os.path.join(out, "dev_report.json"),
                                 _report_payload(dev_reports))


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
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
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
    ds = load(args.input)
    if args.to_format == "conll":
        ds = _filter_overlaps(ds, args.overlap_policy, "sentence(s)")
        span_codec.save_conll(ds, args.output)
    else:
        corpus.save_dataset(ds, args.output)
    return 0


def _cmd_train(args) -> int:
    given = {"kind": args.kind, "epochs": args.epochs, "seed": args.train_seed}
    if args.stage == "tagger":
        for flag, value in (("--learning-rate", args.learning_rate),
                            ("--threshold", args.threshold)):
            if value is not None:
                raise ConfigError(f"{flag} applies only to 'train relation', not 'train tagger'")
        config, train, save = TaggerConfig, _train_tagger, taggers.save_model
    else:
        given.update(learning_rate=args.learning_rate, threshold=args.threshold)
        config, train, save = RelationConfig, _train_relation, relation.save_model
    cfg = config(**{key: value for key, value in given.items() if value is not None})
    ds = corpus.load_dataset(args.train)
    ds = _filter_overlaps(ds, args.overlap_policy, "sentence(s)")
    save(train(cfg, ds), args.out)
    return 0


def _cmd_predict(args) -> int:
    if bool(args.tagger_model) == bool(args.external_conll):
        raise ConfigError("predict needs exactly one of --tagger-model and --external-conll")
    ds = corpus.load_dataset(args.data)
    tagger_model = external = None
    if args.external_conll:
        external = taggers.load_external_predictions(args.external_conll, ds)
    else:
        tagger_model = taggers.load_model(args.tagger_model)
    relation_model = (
        relation.load_model(args.relation_model)
        if args.relation_model
        else relation.always_true_model()
    )
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    tags, graphs, rows = _predict(ds, tagger_model, relation_model, external)
    _write_predictions(out_dir, ds, tags, graphs, rows)
    return 0


def _cmd_evaluate(args) -> int:
    if not (args.pred_conll or args.pred_graphs):
        raise ConfigError("evaluate needs --pred-conll and/or --pred-graphs")
    gold = corpus.load_dataset(args.gold)
    ds = _filter_overlaps(gold, args.overlap_policy, "gold sentence(s)")
    # A predictions file may hold any gold sentence (predict tags every one,
    # pipeline those the overlap filter keeps); stratified_report requires
    # each kept one.
    tags = graphs = None
    if args.pred_conll:
        tags = taggers.load_predictions_conll(args.pred_conll, gold)
    if args.pred_graphs:
        predicted = corpus.load_dataset(args.pred_graphs).sentences
        unknown = ", ".join(sorted({s.id for s in predicted} - gold.by_id().keys()))
        if unknown:
            raise InputError(f"{args.pred_graphs}: unknown sentence id(s): {unknown}")
        try:
            graphs = {s.id: aggregator.SentimentGraph(s.id, s.opinions) for s in predicted}
        except ValidationError as err:
            raise ValidationError(f"{args.pred_graphs}: {err}") from err
    reports = _reports(ds, tags, graphs, args.strata)
    payload = _report_payload(reports)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        print(metrics.format_report_table(reports))
    if args.output:
        corpus.write_json_object(args.output, payload)
    return 0


def _cmd_pipeline(args) -> int:
    run_pipeline(load_config(args.config))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentigraph",
        description="Opinion extraction pipeline: span tagging, relation "
        "classification, sentiment-graph aggregation, and evaluation.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
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
    p.add_argument(
        "--overlap-policy",
        choices=("none", "drop_sentence", "priority_keep"),
        default="none",
        help="how to resolve cross-role overlaps before a CoNLL write",
    )
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("train", help="train a tagger or relation model")
    p.add_argument("stage", choices=("tagger", "relation"))
    p.add_argument("--train", required=True, help="JSON training dataset")
    # Unset flags stay None and take the TaggerConfig / RelationConfig defaults.
    p.add_argument("--kind", default=None, help="model kind (default: perceptron / logistic)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--train-seed", type=int, default=None, dest="train_seed")
    p.add_argument(
        "--overlap-policy",
        choices=("none", "drop_sentence", "priority_keep"),
        default="drop_sentence",
    )
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
    p.add_argument(
        "--overlap-policy",
        choices=("none", "drop_sentence", "priority_keep"),
        default="drop_sentence",
    )
    p.add_argument("--output", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full pipeline from a JSON config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except SentigraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
