"""Structured sentiment extraction: spans, relations, and opinion graphs.

A three-stage pipeline over tokenized sentences: a sequence tagger marks
holder/target/expression spans, a binary classifier decides which entity
and expression spans belong together, and a deterministic aggregator
assembles the linked pairs into per-sentence sentiment graphs. Ships with
dataset tooling (stats, overlap filtering, up-sampling), exact-match
evaluation metrics, and a CLI.
"""

from .aggregator import (
    SentimentGraph,
    aggregate,
    end_to_end,
    gold_graph,
    graphs_to_dataset,
    write_triples,
)
from .corpus import (
    Dataset,
    OpinionTuple,
    OverlapPolicy,
    Role,
    Sentence,
    Span,
    Token,
    compute_stats,
    filter_overlapping,
    load_dataset,
    save_dataset,
    upsample,
)
from .errors import InputError, ParseError, ValidationError
from .metrics import (
    PRF,
    EvalReport,
    Stratum,
    format_report_table,
    graph_f1,
    relation_prf,
    stratified_report,
    token_f1,
)
from .relation import (
    RelationInstance,
    RelationKind,
    RelationModel,
    classify,
    featurize,
    generate_instances,
    gold_instances,
    train_logistic,
)
from .span_codec import BIO_LABELS, TagSequence, decode, encode, load_conll, save_conll
from .taggers import (
    DEFAULT_POS_MAP,
    TaggerKind,
    TaggerModel,
    load_external_predictions,
    tag,
    train_perceptron,
)

__version__ = "0.1.0"

__all__ = [
    "BIO_LABELS", "DEFAULT_POS_MAP", "Dataset", "EvalReport", "InputError",
    "OpinionTuple", "OverlapPolicy", "PRF", "ParseError",
    "RelationInstance", "RelationKind", "RelationModel", "Role",
    "Sentence", "SentimentGraph", "Span",
    "Stratum", "TagSequence", "TaggerKind", "TaggerModel", "Token",
    "ValidationError", "aggregate", "classify",
    "compute_stats", "decode", "encode", "end_to_end", "featurize",
    "filter_overlapping", "format_report_table", "generate_instances",
    "gold_graph", "gold_instances", "graph_f1",
    "graphs_to_dataset", "load_conll", "load_dataset", "load_external_predictions",
    "relation_prf", "save_conll", "save_dataset",
    "stratified_report", "tag", "token_f1", "train_logistic", "train_perceptron",
    "upsample", "write_triples",
]
