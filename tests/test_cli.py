import json
import os
import subprocess
import sys

import pytest

import sentigraph
from helpers import opinion, sent, span
from sentigraph import Dataset, load_conll, load_dataset, save_conll, save_dataset, taggers
from sentigraph.cli import main
from sentigraph.corpus import dataset_to_dict
from sentigraph.span_codec import read_conll_blocks
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


def test_stats_pooled_row_pools_counts(tmp_path, capsys):
    a = sent("a", ["x", "y"], opinions=[opinion(expressions=[span("e", 0, 1)])])
    paths = [str(tmp_path / f"{name}.json") for name in ("d1", "d2", "d3")]
    save_dataset(Dataset(name="d1", sentences=[a]), paths[0])
    save_dataset(Dataset(name="d2", sentences=[sent("b", ["x"])]), paths[1])
    save_dataset(generate_corpus(25, seed=82, name="d3"), paths[2])
    assert main(["--format", "json", "stats", *paths]) == 0
    *parts, pooled = json.loads(capsys.readouterr().out)
    assert pooled["dataset"] == "pooled"
    total = sum(part["total_sentence"] for part in parts)
    assert pooled["total_sentence"] == total
    for role in ("source", "target", "exp"):
        count = sum(part[f"{role}_count"] for part in parts)
        assert pooled[f"{role}_count"] == count
        assert pooled[f"{role}_max_count"] == max(part[f"{role}_max_count"] for part in parts)
        assert pooled[f"{role}_avg_count"] == round(count / total, 2)
    assert pooled["label_group_counts"] == {
        k: sum(part["label_group_counts"][k] for part in parts) for k in ("0", "1", "2", "3")
    }


def test_stats_missing_file_exits_2(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err


def test_stats_token_off_its_offsets_exits_2(tmp_path, capsys):
    path = tmp_path / "offsets.json"
    path.write_text(json.dumps({"name": "o", "sentences": [{
        "id": "a", "text": "x yz",
        "tokens": [{"text": "x", "start": 0, "end": 1}, {"text": "yzzy", "start": 2, "end": 999}],
    }]}), encoding="utf-8")
    assert main(["stats", str(path)]) == 2
    assert "sentence 'a', token 1" in capsys.readouterr().err


def test_stats_names_the_file_that_fails_validation(tmp_path, capsys):
    good = tmp_path / "good.json"
    save_dataset(Dataset(name="g", sentences=[sent("s", ["x"])]), str(good))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "b", "sentences": [{
        "id": "syn0000", "text": "the cat",
        "tokens": [{"text": "a", "start": 0, "end": 3}],
    }]}), encoding="utf-8")
    assert main(["stats", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: sentence 'syn0000', token 0" in err
    assert str(good) not in err


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
    assert len(load_conll(str(out))) == 1


def test_convert_overlap_without_policy_fails(tmp_path, capsys):
    clash = sent(
        "clash", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])],
    )
    src = tmp_path / "o.json"
    save_dataset(Dataset(name="o", sentences=[clash]), str(src))
    rc = main(["convert", str(src), str(tmp_path / "o.conll"), "--from", "json", "--to", "conll"])
    assert rc == 1


def test_failed_convert_keeps_the_earlier_output(tmp_path, capsys):
    # The second sentence id cannot be written to CoNLL, so the write fails
    # after the first sentence.
    src = tmp_path / "in.json"
    save_dataset(Dataset(name="in", sentences=[sent("good", ["a"]), sent("bad\tid", ["b"])]),
                 str(src))
    out = tmp_path / "out.conll"
    out.write_bytes(b"earlier bytes\n")
    assert main(["convert", str(src), str(out), "--from", "json", "--to", "conll"]) == 2
    assert "bad\\tid" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "out.conll"]


def test_convert_into_a_missing_directory_names_the_output(tmp_path, capsys):
    src = tmp_path / "in.json"
    save_dataset(Dataset(name="in", sentences=[sent("good", ["a"])]), str(src))
    out = tmp_path / "missing" / "out.conll"
    assert main(["convert", str(src), str(out), "--from", "json", "--to", "conll"]) == 1
    assert f"No such file or directory: '{out}'" in capsys.readouterr().err


def test_convert_empty_dataset(tmp_path):
    src = tmp_path / "e.json"
    save_dataset(Dataset(name="e"), str(src))
    out = tmp_path / "e.conll"
    assert main(["convert", str(src), str(out), "--from", "json", "--to", "conll"]) == 0
    assert len(load_conll(str(out))) == 0


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
    save_conll(ds, str(pred))
    assert main(["evaluate", "--gold", test_path, "--pred-conll", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "1.000" in out


def test_evaluate_without_predictions_exits_2(synth_paths, capsys):
    _, test_path = synth_paths
    assert main(["evaluate", "--gold", test_path]) == 2


def test_predict_requires_model(synth_paths, capsys):
    _, test_path = synth_paths
    assert main(["predict", "--data", test_path]) == 2


def test_predict_rejects_tagger_model_with_external_conll(tmp_path, capsys, synth_paths):
    _, test_path = synth_paths
    conll = tmp_path / "echo.conll"
    save_conll(load_dataset(test_path), str(conll))
    out_dir = tmp_path / "preds"
    rc = main(["--output-dir", str(out_dir), "predict", "--data", test_path,
               "--tagger-model", str(tmp_path / "nonexistent.json"),
               "--external-conll", str(conll)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--tagger-model" in err and "--external-conll" in err
    assert not out_dir.exists()


def test_evaluate_scores_predict_and_pipeline_conll_when_gold_has_overlap(tmp_path, capsys):
    # The default overlap policy drops "clash" from the gold set. predict
    # tags every gold sentence and pipeline only the kept ones; evaluate
    # accepts both files, and still rejects a sentence the gold file lacks.
    clash = sent(
        "clash", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])],
    )
    kept = generate_corpus(12, seed=7, name="gold")
    gold = tmp_path / "gold.json"
    save_dataset(Dataset(name="gold", sentences=kept.sentences + (clash,)), str(gold))
    tagger = tmp_path / "tagger.json"
    tagger.write_text('{"kind": "MOST_COMMON"}', encoding="utf-8")
    out_dir = tmp_path / "preds"
    assert main(["--output-dir", str(out_dir), "predict", "--data", str(gold),
                 "--tagger-model", str(tagger)]) == 0
    predicted = out_dir / "predictions.conll"
    assert "# sent_id = clash" in predicted.read_text(encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred-conll", str(predicted),
                 "--pred-graphs", str(out_dir / "graphs.json")]) == 0
    capsys.readouterr()

    only_kept = tmp_path / "kept.conll"
    save_conll(kept, str(only_kept))
    assert main(["--format", "json", "evaluate", "--gold", str(gold),
                 "--pred-conll", str(only_kept)]) == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["token"]["target"]["f1"] == 1.0

    ghost = tmp_path / "ghost.conll"
    ghost.write_text(predicted.read_text(encoding="utf-8") + "# sent_id = ghost\n1\tb\t_\tO\n\n",
                     encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred-conll", str(ghost)]) == 2
    assert f"{ghost}: unknown sentence id 'ghost'" in capsys.readouterr().err


def test_evaluate_pred_graphs_rejects_unknown_ids(tmp_path, capsys):
    # A graphs file may hold every gold sentence, as predict writes it, or
    # only the sentences the overlap filter keeps, as pipeline writes it; a
    # sentence the gold file lacks exits 2.
    clash = sent(
        "clash", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])],
    )
    kept = generate_corpus(12, seed=7, name="gold")
    gold = tmp_path / "gold.json"
    save_dataset(Dataset(name="gold", sentences=kept.sentences + (clash,)), str(gold))
    every, only_kept, ghost = (tmp_path / f"{name}.json" for name in ("every", "kept", "ghost"))
    save_dataset(load_dataset(str(gold)), str(every))
    save_dataset(kept, str(only_kept))
    save_dataset(Dataset(name="ghost", sentences=kept.sentences + (sent("ghost", ["b"]),)),
                 str(ghost))
    for graphs in (every, only_kept):
        assert main(["evaluate", "--gold", str(gold), "--pred-graphs", str(graphs)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--gold", str(gold), "--pred-graphs", str(ghost)]) == 2
    assert "ghost" in capsys.readouterr().err


def _gold_with_dropped(tmp_path, *dropped):
    """Twelve sentences the default overlap filter keeps, then one it drops
    (a target and an expression share a token) for each id in ``dropped``;
    written to gold.json."""
    kept = generate_corpus(12, seed=7, name="gold")
    clashes = tuple(
        sent(sent_id, ["w0", "w1", "w2"],
             opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])])
        for sent_id in dropped
    )
    gold = tmp_path / "gold.json"
    save_dataset(Dataset(name="gold", sentences=kept.sentences + clashes), str(gold))
    return gold, kept


def test_evaluate_reads_a_kept_plus_some_dropped_conll_file_once(tmp_path, capsys, monkeypatch):
    gold, kept = _gold_with_dropped(tmp_path, "c1", "c2")
    conll, graphs = tmp_path / "pred.conll", tmp_path / "pred.json"
    save_conll(kept, str(conll))
    with open(conll, "a", encoding="utf-8") as fh:
        fh.write("# sent_id = c1\n1\tw0\t_\tO\n2\tw1\t_\tO\n3\tw2\t_\tO\n\n")
    save_dataset(Dataset(name="pred", sentences=kept.sentences + (sent("c1", ["w0", "w1", "w2"]),)),
                 str(graphs))
    reads = []

    def counted(path):
        reads.append(path)
        return read_conll_blocks(path)

    monkeypatch.setattr(taggers, "read_conll_blocks", counted)
    assert main(["--format", "json", "evaluate", "--gold", str(gold),
                 "--pred-conll", str(conll), "--pred-graphs", str(graphs)]) == 0
    assert reads == [str(conll)]
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["sentence_count"] == 12
    assert report["token"]["target"]["f1"] == 1.0


def test_evaluate_missing_kept_sentence_exits_2_for_both_files(tmp_path, capsys):
    gold, kept = _gold_with_dropped(tmp_path, "c1")
    short = Dataset(name="short", sentences=kept.sentences[1:])
    conll, graphs = tmp_path / "short.conll", tmp_path / "short.json"
    save_conll(short, str(conll))
    save_dataset(short, str(graphs))
    capsys.readouterr()
    for flag, path in (("--pred-conll", conll), ("--pred-graphs", graphs)):
        assert main(["evaluate", "--gold", str(gold), flag, str(path)]) == 2
        assert f"'{kept.sentences[0].id}'" in capsys.readouterr().err


def test_json_stdout_equals_the_written_file(tmp_path, capsys):
    ds = generate_corpus(6, seed=3, name="café")
    gold, pred = tmp_path / "gold.json", tmp_path / "pred.conll"
    save_dataset(ds, str(gold))
    save_conll(ds, str(pred))
    out_dir, report = tmp_path / "stats", tmp_path / "report.json"
    assert main(["--format", "json", "--output-dir", str(out_dir), "stats", str(gold)]) == 0
    out = capsys.readouterr().out
    assert "café" in out
    assert out.encode("utf-8") == (out_dir / "stats.json").read_bytes()
    assert main(["--format", "json", "evaluate", "--gold", str(gold),
                 "--pred-conll", str(pred), "--output", str(report)]) == 0
    out = capsys.readouterr().out
    assert "café" in out
    assert out.encode("utf-8") == report.read_bytes()


def test_predict_rejects_an_id_that_conll_cannot_hold(tmp_path, capsys):
    data, tagger = tmp_path / "data.json", tmp_path / "tagger.json"
    save_dataset(Dataset(name="d", sentences=[sent("x ", ["a"])]), str(data))
    tagger.write_text('{"kind": "MOST_COMMON"}', encoding="utf-8")
    assert main(["--output-dir", str(tmp_path / "out"), "predict", "--data", str(data),
                 "--tagger-model", str(tagger)]) == 2
    assert "'x '" in capsys.readouterr().err


def _run_cli(*argv, **env):
    """The CLI in a child process: (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sentigraph.__file__)))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "sentigraph.cli", *argv], env=env,
                          capture_output=True, encoding="utf-8", errors="backslashreplace")
    return done.returncode, done.stderr


def test_a_lone_surrogate_exits_2_naming_the_output(tmp_path):
    # JSON's "\ud800" escape loads as a lone surrogate, which UTF-8 cannot encode.
    data, tagger = tmp_path / "data.json", tmp_path / "tagger.json"
    data.write_text(json.dumps(dataset_to_dict(Dataset("d", [sent("a\ud800", ["a"])]))),
                    encoding="utf-8")
    tagger.write_text('{"kind": "MOST_COMMON"}', encoding="utf-8")
    out = tmp_path / "out"
    for argv, output in (
        (["convert", str(data), str(tmp_path / "o.conll"), "--from", "json", "--to", "conll"],
         tmp_path / "o.conll"),
        (["convert", str(data), str(tmp_path / "o.json"), "--from", "json", "--to", "json"],
         tmp_path / "o.json"),
        (["--output-dir", str(out), "predict", "--data", str(data), "--tagger-model", str(tagger)],
         out / "predictions.conll"),
    ):
        code, err = _run_cli(*argv)
        assert code == 2
        assert f"{output}: cannot write '\\ud800'" in err
        assert "Traceback" not in err
        assert not output.exists()
    assert sorted(os.listdir(tmp_path)) == ["data.json", "out", "tagger.json"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stdout_that_cannot_encode_a_name_exits_2(tmp_path, fmt):
    gold = tmp_path / "gold.json"
    save_dataset(generate_corpus(3, seed=3, name="café"), str(gold))
    code, err = _run_cli("--format", fmt, "stats", str(gold), PYTHONIOENCODING="ascii")
    assert code == 2
    assert "encoding ascii" in err and "PYTHONIOENCODING=utf-8" in err
    assert "Traceback" not in err
    # No encoding prints a lone surrogate, so no encoding is suggested for one.
    surrogate = tmp_path / "surrogate.json"
    surrogate.write_text(json.dumps(dataset_to_dict(Dataset("a\ud800", [sent("s", ["a"])]))),
                         encoding="utf-8")
    code, err = _run_cli("--format", fmt, "stats", str(surrogate), PYTHONIOENCODING="utf-8")
    assert code == 2
    assert "encoding utf-8 cannot print '\\ud800'" in err
    assert "PYTHONIOENCODING" not in err and "Traceback" not in err


def test_undecodable_or_over_nested_input_exits_2_naming_the_file(tmp_path):
    gold = tmp_path / "gold.json"
    save_dataset(Dataset("g", [sent("a", ["caf"])]), str(gold))
    latin1 = tmp_path / "latin1.conll"  # byte 0xE9 is not UTF-8
    latin1.write_bytes(b"# sent_id = a\n1\tcaf\xe9\t_\tO\n\n")
    deep = tmp_path / "deep.json"
    depth = 100 * sys.getrecursionlimit()
    deep.write_text('{"name": "d", "sentences": ' + "[" * depth + "]" * depth + "}",
                    encoding="utf-8")
    for argv, path in (
        (["convert", str(latin1), str(tmp_path / "o.json"), "--from", "conll", "--to", "json"],
         latin1),
        (["--output-dir", str(tmp_path / "out"), "predict", "--data", str(gold),
          "--external-conll", str(latin1)], latin1),
        (["evaluate", "--gold", str(gold), "--pred-conll", str(latin1)], latin1),
        (["stats", str(deep)], deep),
    ):
        code, err = _run_cli(*argv)
        assert code == 2
        assert f"error: {path}: " in err
        assert "Traceback" not in err


def test_a_conll_input_error_names_the_file(tmp_path, capsys):
    gold = tmp_path / "gold.json"
    save_dataset(Dataset("g", [sent("a", ["x"]), sent("b", ["y", "z"])]), str(gold))
    short, partial, twice = (tmp_path / f"{name}.conll" for name in ("short", "partial", "twice"))
    short.write_text("# sent_id = a\n1\tx\t_\tO\n\n# sent_id = b\n1\ty\t_\tO\n\n",
                     encoding="utf-8")
    partial.write_text("# sent_id = a\n1\tx\t_\tO\n\n", encoding="utf-8")
    twice.write_text("# sent_id = a\n1\tx\t_\tO\n\n# sent_id = a\n1\tx\t_\tO\n\n",
                     encoding="utf-8")
    out = str(tmp_path / "out")
    for argv, message in (
        (["evaluate", "--gold", str(gold), "--pred-conll", str(short)],
         f"{short}: sentence 'b': dataset has 2 tokens"),
        (["--output-dir", out, "predict", "--data", str(gold), "--external-conll", str(short)],
         f"{short}: sentence 'b': dataset has 2 tokens"),
        (["--output-dir", out, "predict", "--data", str(gold), "--external-conll", str(partial)],
         f"{partial}: missing sentence 'b'"),
        (["convert", str(twice), str(tmp_path / "o.json"), "--from", "conll", "--to", "json"],
         f"{twice}: duplicate sentence id 'a'"),
    ):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_an_invalid_pred_graph_names_the_file(tmp_path):
    # A gold file keeps polarities, which a predicted graph cannot carry.
    gold = tmp_path / "gold.json"
    opinions = [opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)],
                        polarity="positive")]
    save_dataset(Dataset("g", [sent("s1", ["a", "b"], opinions=opinions)]), str(gold))
    code, err = _run_cli("evaluate", "--gold", str(gold), "--pred-graphs", str(gold))
    assert code == 2
    assert f"error: {gold}: graph for sentence 's1': tuples carry no polarity" in err
    assert "Traceback" not in err


def test_convert_json_to_conll_and_back(tmp_path, capsys):
    src, conll, back = tmp_path / "in.json", tmp_path / "mid.conll", tmp_path / "back.json"
    ds = generate_corpus(20, seed=5, name="in")
    save_dataset(ds, str(src))
    assert main(["convert", str(src), str(conll), "--from", "json", "--to", "conll",
                 "--overlap-policy", "drop_sentence"]) == 0
    assert main(["convert", str(conll), str(back), "--from", "conll", "--to", "json"]) == 0
    loaded = load_dataset(str(back))
    assert loaded.name == "mid"
    assert [s.id for s in loaded] == [s.id for s in ds]
    for original, read in zip(ds, loaded):
        assert read.spans() == original.spans()
        assert [t.text for t in read.tokens] == [t.text for t in original.tokens]


@pytest.mark.parametrize(
    "content",
    [
        '[{"kind": "PERCEPTRON"}]',
        '{"kind": "PERCEPTRON", "weights": [1.0]}',
        '{"kind": "PERCEPTRON", "weights": {"w=x\\tB-EXP": true}}',
        '{"kind": "POS_CHUNK", "map": "NOUN"}',
        '{"kind": "POS_CHUNK", "map": {"NOUN": "B-THING"}}',
    ],
    ids=["top_level_list", "weights_list", "boolean_weight", "map_string", "map_label_not_bio"],
)
def test_predict_bad_tagger_model_exits_2(tmp_path, capsys, synth_paths, content):
    _, test_path = synth_paths
    model = tmp_path / "tagger.json"
    model.write_text(content, encoding="utf-8")
    assert main(["--output-dir", str(tmp_path / "preds"), "predict", "--data", test_path,
                 "--tagger-model", str(model)]) == 2
    assert str(model) in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        '[{"kind": "LOGISTIC"}]',
        '{"kind": "LOGISTIC", "threshold": "high"}',
        '{"kind": "LOGISTIC", "bias": [1]}',
        '{"kind": "LOGISTIC", "weights": {"a": true}}',
        '{"kind": "LOGISTIC", "bias": 1' + "0" * 400 + "}",
        '{"kind": "LOGISTIC", "threshold": 1.5}',
    ],
    ids=["top_level_list", "threshold_string", "bias_list", "boolean_weight", "bias_too_large",
         "threshold_above_one"],
)
def test_predict_bad_relation_model_exits_2(tmp_path, capsys, synth_paths, content):
    _, test_path = synth_paths
    tagger = tmp_path / "tagger.json"
    tagger.write_text('{"kind": "MOST_COMMON"}', encoding="utf-8")
    model = tmp_path / "rel.json"
    model.write_text(content, encoding="utf-8")
    assert main(["--output-dir", str(tmp_path / "preds"), "predict", "--data", test_path,
                 "--tagger-model", str(tagger), "--relation-model", str(model)]) == 2
    assert str(model) in capsys.readouterr().err


def test_train_relation_rejects_threshold_before_loading_data(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    out = tmp_path / "rel.json"
    assert main(["train", "relation", "--train", str(broken), "--threshold", "1.5",
                 "--out", str(out)]) == 2
    assert "relation.threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--threshold", "1.5"), ("--learning-rate", "-3")])
def test_train_tagger_rejects_relation_only_flags(tmp_path, capsys, flag, value):
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    out = tmp_path / "t.json"
    assert main(["train", "tagger", "--train", str(broken), "--epochs", "1", flag, value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert str(broken) not in err
    assert not out.exists()


def test_train_defaults_equal_pipeline_defaults(tmp_path, synth_paths):
    # A config with only the required keys and `train` with no optional flags
    # both take the TaggerConfig / RelationConfig defaults, so the models match.
    train_path, test_path = synth_paths
    config = tmp_path / "minimal.json"
    config.write_text(json.dumps({"train": train_path, "test": test_path,
                                  "output_dir": str(tmp_path / "run")}), encoding="utf-8")
    assert main(["pipeline", str(config)]) == 0
    for stage in ("tagger", "relation"):
        out = tmp_path / f"{stage}.json"
        assert main(["train", stage, "--train", train_path, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "run" / f"{stage}_model.json").read_bytes()


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


@pytest.mark.parametrize(
    "overrides, field_name",
    [
        ({"tagger": {"kind": "POS_CHUNK", "pos_map": "NOUN"}}, "tagger.pos_map"),
        ({"relation": {"kind": "LOGISTIC", "class_weight": "inverse"}}, "relation.class_weight"),
        ({"relation": {"kind": "LOGISTIC", "threshold": 1.5}}, "relation.threshold"),
        ({"upsampel": True}, "'upsampel'"),
        ({"tagger": {"kind": "PERCEPTRON", "epoch": 3}}, "'tagger.epoch'"),
        ({"relation": {"kind": "LOGISTIC", "threshhold": 0.4}}, "'relation.threshhold'"),
    ],
    ids=["pos_map_string", "unknown_class_weight", "threshold_above_one",
         "unknown_top_level_field", "unknown_tagger_field", "unknown_relation_field"],
)
def test_pipeline_invalid_option_named_before_loading_data(tmp_path, capsys, overrides,
                                                           field_name):
    # The datasets do not parse, so only a check made before loading them can
    # name the option.
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    config = _write_config(tmp_path, str(broken), str(broken), **overrides)
    assert main(["pipeline", config]) == 2
    err = capsys.readouterr().err
    assert field_name in err
    assert "Traceback" not in err


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
