import json
import os
import subprocess
import sys

import pytest

import sentigraph
from helpers import opinion, sent, span
from sentigraph import Dataset, FileFormat, load_dataset, save_dataset
from sentigraph.cli import main
from sentigraph.synth import generate_corpus


@pytest.fixture
def synth_paths(tmp_path):
    train = generate_corpus(220, seed=101, name="synth-train")
    test = generate_corpus(60, seed=102, name="synth-test")
    train_path = tmp_path / "train.json"
    test_path = tmp_path / "test.json"
    save_dataset(train, str(train_path))
    save_dataset(test, str(test_path))
    return str(train_path), str(test_path)


def _write_config(tmp_path, train_path, test_path, **overrides):
    cfg = {
        "train": train_path,
        "test": test_path,
        "output_dir": str(tmp_path / "run"),
        "overlap_policy": "DROP_SENTENCE",
        "upsample": True,
        "upsample_seed": 3,
        "tagger": {"kind": "PERCEPTRON", "epochs": 5, "seed": 1},
        "relation": {"kind": "LOGISTIC", "epochs": 15, "learning_rate": 0.5, "seed": 2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_table(tmp_path, capsys):
    ds = Dataset(
        name="tiny",
        sentences=[
            sent("a", ["x", "y", "z"],
                 opinions=[opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)])]),
            sent("b", ["quiet"]),
        ],
    )
    path = tmp_path / "tiny.json"
    save_dataset(ds, str(path))
    assert main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split()
    assert header == [
        "dataset", "total_sentence",
        "source_count", "source_max_count", "source_avg_count",
        "target_count", "target_max_count", "target_avg_count",
        "exp_count", "exp_max_count", "exp_avg_count",
    ]
    row = out.splitlines()[1].split()
    assert row[0] == "tiny" and row[1] == "2"
    assert row[5] == "1" and row[7] == "0.50"


def test_stats_json_format(tmp_path, capsys):
    ds = Dataset(name="j", sentences=[sent("a", ["x"])])
    path = tmp_path / "j.json"
    save_dataset(ds, str(path))
    assert main(["--format", "json", "stats", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["dataset"] == "j"
    assert payload[0]["total_sentence"] == 1


def test_stats_pooled_row(tmp_path, capsys):
    for name in ("a", "b"):
        save_dataset(Dataset(name=name, sentences=[sent("s", ["x"])]), str(tmp_path / f"{name}.json"))
    assert main(["--format", "json", "stats", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["dataset"] for row in payload] == ["a", "b", "pooled"]
    assert payload[2]["total_sentence"] == 2


def test_stats_missing_file_exits_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_stats_writes_json_file(tmp_path, capsys):
    ds = Dataset(name="w", sentences=[sent("a", ["x"])])
    path = tmp_path / "w.json"
    save_dataset(ds, str(path))
    out_dir = tmp_path / "statsout"
    assert main(["--output-dir", str(out_dir), "stats", str(path)]) == 0
    written = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    assert written[0]["dataset"] == "w"


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------


def test_convert_round_trip_preserves_spans(tmp_path, capsys):
    ds = generate_corpus(25, seed=55, name="round")
    src = tmp_path / "src.json"
    save_dataset(ds, str(src))
    conll = tmp_path / "mid.conll"
    back = tmp_path / "back.json"
    assert main(["convert", str(src), str(conll), "--from", "json", "--to", "conll"]) == 0
    assert main(["convert", str(conll), str(back), "--from", "conll", "--to", "json"]) == 0
    reloaded = load_dataset(str(back))
    for original, loaded in zip(ds.sentences, reloaded.sentences):
        assert loaded.spans() == original.spans()


def test_convert_overlap_drop_lists_ids(tmp_path, capsys):
    clash = sent(
        "clash", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])],
    )
    src = tmp_path / "o.json"
    save_dataset(Dataset(name="o", sentences=[clash, sent("fine", ["ok"])]), str(src))
    out = tmp_path / "o.conll"
    rc = main(["convert", str(src), str(out), "--from", "json", "--to", "conll",
               "--overlap-policy", "drop_sentence"])
    assert rc == 0
    assert "clash" in capsys.readouterr().err
    assert len(load_dataset(str(out), FileFormat.CONLL)) == 1


def test_convert_overlap_without_policy_fails(tmp_path, capsys):
    clash = sent(
        "clash", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])],
    )
    src = tmp_path / "o.json"
    save_dataset(Dataset(name="o", sentences=[clash]), str(src))
    rc = main(["convert", str(src), str(tmp_path / "o.conll"), "--from", "json", "--to", "conll"])
    assert rc == 1


def test_convert_empty_dataset(tmp_path):
    src = tmp_path / "e.json"
    save_dataset(Dataset(name="e"), str(src))
    out = tmp_path / "e.conll"
    assert main(["convert", str(src), str(out), "--from", "json", "--to", "conll"]) == 0
    assert len(load_dataset(str(out), FileFormat.CONLL)) == 0


# ---------------------------------------------------------------------------
# train / predict / evaluate
# ---------------------------------------------------------------------------


def test_train_predict_evaluate_flow(tmp_path, capsys, synth_paths):
    train_path, test_path = synth_paths
    tagger_path = tmp_path / "tagger.json"
    rel_path = tmp_path / "rel.json"
    assert main(["train", "tagger", "--train", train_path, "--epochs", "5",
                 "--train-seed", "1", "--out", str(tagger_path)]) == 0
    assert main(["train", "relation", "--train", train_path, "--epochs", "15",
                 "--train-seed", "2", "--out", str(rel_path)]) == 0
    out_dir = tmp_path / "preds"
    assert main(["--output-dir", str(out_dir), "predict", "--data", test_path,
                 "--tagger-model", str(tagger_path), "--relation-model", str(rel_path)]) == 0
    for name in ("predictions.conll", "graphs.json", "triples.jsonl", "instances.jsonl"):
        assert (out_dir / name).exists()
    report_path = tmp_path / "report.json"
    rc = main(["evaluate", "--gold", test_path,
               "--pred-conll", str(out_dir / "predictions.conll"),
               "--pred-graphs", str(out_dir / "graphs.json"),
               "--strata", "--output", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "holder_f1" in out
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    strata = [r["stratum"] for r in payload["reports"]]
    assert strata == ["ALL", "SINGLE_TARGET", "MULTI_TARGET"]
    all_report = payload["reports"][0]
    assert all_report["token"]["target"]["f1"] > 0.9


def test_evaluate_conll_only(tmp_path, capsys, synth_paths):
    _, test_path = synth_paths
    ds = load_dataset(test_path)
    pred = tmp_path / "echo.conll"
    save_dataset(ds, str(pred), FileFormat.CONLL)
    assert main(["evaluate", "--gold", test_path, "--pred-conll", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "1.000" in out


def test_evaluate_without_predictions_exits_2(synth_paths, capsys):
    _, test_path = synth_paths
    assert main(["evaluate", "--gold", test_path]) == 2


def test_predict_requires_model(synth_paths, capsys):
    _, test_path = synth_paths
    assert main(["predict", "--data", test_path]) == 2


@pytest.mark.parametrize(
    "content",
    [
        '[{"kind": "PERCEPTRON"}]',
        '{"kind": "PERCEPTRON", "weights": [1.0]}',
        '{"kind": "PERCEPTRON", "weights": {"w=x\\tB-EXP": true}}',
        '{"kind": "POS_CHUNK", "map": "NOUN"}',
    ],
    ids=["top_level_list", "weights_list", "boolean_weight", "map_string"],
)
def test_predict_bad_tagger_model_exits_2(tmp_path, capsys, synth_paths, content):
    _, test_path = synth_paths
    model = tmp_path / "tagger.json"
    model.write_text(content, encoding="utf-8")
    assert main(["--output-dir", str(tmp_path / "preds"), "predict", "--data", test_path,
                 "--tagger-model", str(model)]) == 2
    assert str(model) in capsys.readouterr().err


def test_train_rejects_bad_kind(synth_paths, capsys):
    train_path, _ = synth_paths
    assert main(["train", "tagger", "--train", train_path, "--kind", "oracle",
                 "--out", "/tmp/x.json"]) == 2


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_runs_and_reports(tmp_path, capsys, synth_paths):
    train_path, test_path = synth_paths
    config = _write_config(tmp_path, train_path, test_path)
    assert main(["pipeline", config]) == 0
    run_dir = tmp_path / "run"
    expected = [
        "tagger_model.json", "relation_model.json", "predictions.conll",
        "graphs.json", "triples.jsonl", "instances.jsonl", "report.json", "report.txt",
    ]
    for name in expected:
        assert (run_dir / name).exists(), name
    payload = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert [r["stratum"] for r in payload["reports"]] == ["ALL", "SINGLE_TARGET", "MULTI_TARGET"]


def test_pipeline_with_dev_split(tmp_path, capsys, synth_paths):
    train_path, test_path = synth_paths
    dev_path = tmp_path / "dev.json"
    save_dataset(generate_corpus(40, seed=103, name="synth-dev"), str(dev_path))
    config = _write_config(
        tmp_path, train_path, test_path, dev=str(dev_path),
        tagger={"kind": "POS_CHUNK"}, relation={"kind": "ALWAYS_TRUE"},
    )
    assert main(["pipeline", config]) == 0
    run_dir = tmp_path / "run"
    for name in ("dev_predictions.conll", "dev_graphs.json", "dev_report.json"):
        assert (run_dir / name).exists(), name
    payload = json.loads((run_dir / "dev_report.json").read_text(encoding="utf-8"))
    assert payload["reports"][0]["dataset"] == "synth-dev"


def test_pipeline_invalid_epochs_names_field(tmp_path, capsys, synth_paths):
    train_path, test_path = synth_paths
    config = _write_config(
        tmp_path, train_path, test_path, tagger={"kind": "PERCEPTRON", "epochs": -1}
    )
    assert main(["pipeline", config]) == 2
    assert "tagger.epochs" in capsys.readouterr().err


def test_pipeline_missing_train_file_names_field(tmp_path, capsys, synth_paths):
    _, test_path = synth_paths
    config = _write_config(tmp_path, str(tmp_path / "ghost.json"), test_path)
    assert main(["pipeline", config]) == 2
    assert "'train'" in capsys.readouterr().err


def test_pipeline_missing_config_key_names_field(tmp_path, capsys, synth_paths):
    train_path, test_path = synth_paths
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"train": train_path, "test": test_path}), encoding="utf-8")
    assert main(["pipeline", str(config_path)]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_pipeline_artifacts_do_not_depend_on_hash_seed(tmp_path, synth_paths):
    train_path, test_path = synth_paths
    src = os.path.dirname(os.path.dirname(os.path.abspath(sentigraph.__file__)))
    runs = {}
    for hash_seed in ("0", "1"):
        config = _write_config(tmp_path, train_path, test_path,
                               output_dir=str(tmp_path / f"run{hash_seed}"))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "sentigraph.cli", "pipeline", config],
                       env=env, check=True, capture_output=True)
        runs[hash_seed] = {
            name: (tmp_path / f"run{hash_seed}" / name).read_bytes()
            for name in ("relation_model.json", "instances.jsonl")
        }
    assert runs["0"] == runs["1"]
