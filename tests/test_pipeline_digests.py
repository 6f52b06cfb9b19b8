"""Pinned sha256 digests of every CLI artifact on small generated data.

Three runs share one working directory: ``pipeline`` with a dev split
(14 files), ``predict --external-conll`` on the dev split's predicted tags,
and ``evaluate --strata --output`` on the pipeline's test predictions. The
training and test splits each hold one sentence with a cross-role overlap,
so the overlap filter takes part. The digests were computed before the
stage-1 to 3 code paths were merged into one; any refactor of the
pipeline must write the same bytes.

``stats`` over two generated datasets (so the pooled row takes part) is
pinned the same way: its text and JSON stdout and its ``stats.json``. Those
digests were computed before the stats report was cut down to one function.
"""

import hashlib

import pytest

from helpers import digest_runs, stats_digests
from sentigraph.cli import main

PIPELINE = {
    "dev_graphs.json": "100a5818123325b437329b674287b01b31c7b111919b8e2e94a3cd870e3ada0e",
    "dev_instances.jsonl": "038082a4b1b344049b43e46148a1eb5ad8204bcda2c028fb852bcd8ff92ec6ec",
    "dev_predictions.conll": "29e488c8a9cedfacd2437af8cde45dc796d78b6457d182014b9b5ad28a02e3ba",
    "dev_report.json": "2cf9861e96113c7d59c62bb34fba2d6828b269c941a589b9c605a2fe7911fb59",
    "dev_report.txt": "6061d23428bb9a7a467e3a98d820a95cca6d5542ea51513e035a71289ae430c2",
    "dev_triples.jsonl": "6bcffbbc8504620124a2d944ccb698555e6b64d94a1da85e5798112b6166e9d7",
    "graphs.json": "979c4ba96f44131af0a160d733e296f7d9a6d7ccb6bdef9db07f3631c8d640d7",
    "instances.jsonl": "202c67ad6fb14f0a77b31c8ebc277dd333ab6d19083031ee04f8393c5864ce7c",
    "predictions.conll": "08d89f9d57dac97c3a5636d9fed67380f10c36d3f6a2b83d2da9723d61211d1c",
    "relation_model.json": "9237eb503e00f7b75d178704aef84f75b7857b199bfcbba94f685be27266c3da",
    "report.json": "84125f5827e62a946ff4feca09632c517fef7cef7b702614d69f0cf946aad7ef",
    "report.txt": "5acf5a190551da76ce496afb6ffb8d35425acf8e345637670a5c429d70b60618",
    "tagger_model.json": "70a06df315dc1bed5c06d24cbe29ab501cd3ca4827da5a5eafd4e7441f34ab99",
    "triples.jsonl": "28a7a20ba01ccae33ecbedd90a07eb4b36cb18f39ecc5972c006a593c433e1fa",
}
PREDICT_EXTERNAL = {
    "graphs.json": "100a5818123325b437329b674287b01b31c7b111919b8e2e94a3cd870e3ada0e",
    "instances.jsonl": "038082a4b1b344049b43e46148a1eb5ad8204bcda2c028fb852bcd8ff92ec6ec",
    "predictions.conll": "29e488c8a9cedfacd2437af8cde45dc796d78b6457d182014b9b5ad28a02e3ba",
    "triples.jsonl": "6bcffbbc8504620124a2d944ccb698555e6b64d94a1da85e5798112b6166e9d7",
}
EVALUATE = {"report.json": "84125f5827e62a946ff4feca09632c517fef7cef7b702614d69f0cf946aad7ef"}
STATS = {
    "stdout_text": "316d3abacdb67c49aa11e7dbefe588f40b2283e3ba86a6919bdac3f4f72bd52a",
    "stdout_json": "b7111a1d128559fdcaf4d4a45532efae0383520dc67fa7ae62004c1363ca85ba",
    "stats.json": "b7111a1d128559fdcaf4d4a45532efae0383520dc67fa7ae62004c1363ca85ba",
}


def _digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("digests")
    for argv in digest_runs(root):
        assert main(argv) == 0
    return root


def test_pipeline_with_dev_split_is_pinned(runs):
    assert sorted(p.name for p in (runs / "run").iterdir()) == sorted(PIPELINE)
    assert _digests(runs / "run", PIPELINE) == PIPELINE


def test_predict_external_conll_is_pinned(runs):
    assert sorted(p.name for p in (runs / "ext").iterdir()) == sorted(PREDICT_EXTERNAL)
    assert _digests(runs / "ext", PREDICT_EXTERNAL) == PREDICT_EXTERNAL


def test_evaluate_strata_output_is_pinned(runs):
    assert _digests(runs / "eval", EVALUATE) == EVALUATE


@pytest.fixture(scope="module")
def stats_run(tmp_path_factory):
    return stats_digests(tmp_path_factory.mktemp("stats-digests"))


def test_stats_output_is_pinned(stats_run):
    assert stats_run == STATS
