"""``cli.main`` turns the cyclic garbage collector off while a command runs.

The caller's setting comes back on every exit, and a command leaves little
for the collector: only argparse's parser is held in reference cycles, so
new code that builds cycles per token or per sentence shows here.
"""

import contextlib
import gc
import io
import os

import pytest

from helpers import digest_runs, love_school
from sentigraph import Dataset, corpus, save_dataset
from sentigraph.cli import main

# The parser leaves about 320 unreachable objects per command.
MAX_UNREACHABLE = 1000


@contextlib.contextmanager
def collector(enabled: bool):
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@pytest.fixture
def dataset(tmp_path):
    path = str(tmp_path / "d.json")
    save_dataset(Dataset(name="d", sentences=[love_school()]), path)
    return path


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit_code", [0, 1, 2])
def test_main_restores_the_collector(tmp_path, dataset, capsys, enabled, exit_code):
    argv = {
        0: ["stats", dataset],
        1: ["convert", dataset, str(tmp_path / "missing" / "out.json"),
            "--from", "json", "--to", "json"],
        2: ["stats", str(tmp_path / "absent.json")],
    }[exit_code]
    with collector(enabled):
        assert main(argv) == exit_code
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_after_a_usage_error(capsys, enabled):
    with collector(enabled):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--no-such-flag"])
        assert exc.value.code == 2
        assert gc.isenabled() is enabled


def test_collector_is_off_while_a_command_runs(dataset, capsys, monkeypatch):
    seen = []
    load = corpus.load_dataset

    def spy(path):
        seen.append(gc.isenabled())
        return load(path)

    monkeypatch.setattr(corpus, "load_dataset", spy)
    with collector(True):
        assert main(["stats", dataset]) == 0
    assert seen == [False]


def test_each_subcommand_leaves_few_unreachable_objects(tmp_path, capsys):
    pipeline, predict, evaluate = digest_runs(tmp_path)
    run, out = tmp_path / "run", tmp_path / "more"
    os.mkdir(out)
    commands = {
        "pipeline": pipeline,
        "predict": predict,
        "evaluate": evaluate,
        "stats": ["stats", str(tmp_path / "train.json"), str(tmp_path / "test.json")],
        "convert to conll": ["convert", str(tmp_path / "dev.json"), str(out / "dev.conll"),
                             "--from", "json", "--to", "conll"],
        "convert to json": ["convert", str(run / "dev_predictions.conll"),
                            str(out / "dev.json"), "--from", "conll", "--to", "json"],
        "train tagger": ["train", "tagger", "--train", str(tmp_path / "train.json"),
                         "--epochs", "1", "--out", str(out / "tagger.json")],
        "train relation": ["train", "relation", "--train", str(tmp_path / "train.json"),
                           "--epochs", "2", "--out", str(out / "relation.json")],
    }
    unreachable = {}
    with collector(False), contextlib.redirect_stdout(io.StringIO()):
        for name, argv in commands.items():
            gc.collect()
            assert main(argv) == 0, name
            unreachable[name] = gc.collect()
    assert max(unreachable.values()) < MAX_UNREACHABLE, unreachable
