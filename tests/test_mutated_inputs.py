"""Seeded fuzzing: a mutated valid input file loads or raises ``InputError``.

Valid files come from one small pipeline run: a dataset, a perceptron and a
POS-chunk tagger model, a relation model, a pipeline config and a CoNLL
predictions file; a config's stage objects also go to the stage config
classes on their own. Each JSON file is mutated by swapping a value for
one of another JSON type, editing a value, deleting or renaming a key, or
repeating or dropping a list item. The CoNLL file is mutated by editing,
dropping, repeating or swapping its rows. The loader of each kind must
return or raise ``InputError``. A few mutated files of each kind then go
through the CLI in a child process, which must exit 0, or 2 where the
loader raised, and print no traceback.
"""

import contextlib
import copy
import dataclasses
import io
import json
import random

import pytest

from helpers import cli_process
from sentigraph import InputError, load_conll, load_dataset, relation, save_dataset, taggers
from sentigraph.cli import load_config, main
from sentigraph.relation import RelationConfig
from sentigraph.synth import generate_corpus
from sentigraph.taggers import TaggerConfig

SEED = 20211
MUTANTS_PER_FILE = 150
SWAPS = (None, True, False, 0, -1, 3, 2.5, "", "x", "B-EXP", "PERCEPTRON", [], {}, [0, 1],
         {"x": 1})
CELLS = ("", "_", "0", "1", "2", "-1", "x", "x y", "O", "B-EXP", "I-EXP", "B-X", "#")
HEADERS = ("#", "# sent_id =", "# sent_id = syn0000", "# sent_id = unknown", "sent_id = x")


def _edit(rng, value):
    """A value of the same JSON type as ``value``, most often a different one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return rng.choice((value + 1, value - 1, -value, value * 10, 0))
    if isinstance(value, str):
        return rng.choice((value[1:], value + "x", value.upper(), value.lower(), ""))
    return rng.choice(SWAPS)


def mutate_json(rng, value):
    """``value`` after one to three random mutations; a mutation walks down
    from the root, stopping at each level with probability 0.3."""
    value = copy.deepcopy(value)
    for _ in range(rng.randint(1, 3)):
        parent, key, node = None, None, value
        while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
            key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
            parent, node = node, node[key]
        if parent is None:
            return copy.deepcopy(rng.choice(SWAPS))
        op = rng.choice(("swap", "edit", "delete", "repeat"))
        if op == "swap":
            parent[key] = copy.deepcopy(rng.choice(SWAPS))
        elif op == "edit":
            parent[key] = _edit(rng, node)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
        else:  # a dict key cannot repeat, so it is renamed
            parent[_edit(rng, key) or "x"] = parent.pop(key)
    return value


def mutate_conll(rng, text: str) -> str:
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.choice(("edit", "drop", "repeat", "swap"))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif lines[i].startswith("#"):
            lines[i] = rng.choice(HEADERS)
        else:
            cells = lines[i].split("\t")
            k = rng.randrange(len(cells))
            cell_op = rng.choice(("set", "set", "drop", "add", "spaces"))
            if cell_op == "set":
                cells[k] = rng.choice(CELLS)
            elif cell_op == "drop":
                del cells[k]
            elif cell_op == "add":
                cells.insert(k, rng.choice(CELLS))
            lines[i] = (" " if cell_op == "spaces" else "\t").join(cells)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The work directory and the path of one valid file of each kind."""
    root = tmp_path_factory.mktemp("mutated-inputs")
    for name, n, seed in (("train", 16, 1), ("test", 4, 2)):
        save_dataset(generate_corpus(n, seed=seed, name=name), str(root / f"{name}.json"))
    config = {
        "train": str(root / "train.json"), "test": str(root / "test.json"),
        "output_dir": str(root / "run"), "overlap_policy": "DROP_SENTENCE",
        "upsample": True, "upsample_seed": 3,
        "tagger": {"kind": "PERCEPTRON", "epochs": 2, "seed": 1},
        "relation": {"kind": "LOGISTIC", "epochs": 2, "learning_rate": 0.5,
                     "threshold": 0.5, "seed": 2},
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", str(root / "config.json")]) == 0
    taggers.save_model(taggers.TaggerModel(taggers.TaggerKind.POS_CHUNK),
                       str(root / "pos_chunk.json"))
    return root, {
        "dataset": root / "test.json",
        "tagger_model": root / "run" / "tagger_model.json",
        "pos_chunk_model": root / "pos_chunk.json",
        "relation_model": root / "run" / "relation_model.json",
        "config": root / "config.json",
        "conll": root / "run" / "predictions.conll",
    }


def _mutants(rng, kind, path, count):
    """``count`` mutated texts of the valid file of ``kind`` at ``path``."""
    text = path.read_text(encoding="utf-8")
    if kind == "conll":
        return [mutate_conll(rng, text) for _ in range(count)]
    value = json.loads(text)
    return [json.dumps(mutate_json(rng, value)) for _ in range(count)]


def _stage_configs(path):
    """Send the ``tagger`` and ``relation`` objects of a config file, when they
    are objects, to ``TaggerConfig`` and ``RelationConfig``, unknown keys dropped."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    for key, config in (("tagger", TaggerConfig), ("relation", RelationConfig)):
        section = obj.get(key) if isinstance(obj, dict) else None
        if isinstance(section, dict):
            names = {f.name for f in dataclasses.fields(config)}
            config(**{name: value for name, value in section.items() if name in names})


def _loads(kind, path, gold) -> bool:
    """Run every loader of ``kind``; True if each returned, False if one
    raised ``InputError``."""
    loaders = {
        "dataset": [load_dataset],
        "tagger_model": [taggers.load_model],
        "pos_chunk_model": [taggers.load_model],
        "relation_model": [relation.load_model],
        "config": [load_config, _stage_configs],
        "conll": [load_conll, lambda p: taggers.load_external_predictions(p, gold)],
    }[kind]
    loaded = True
    for loader in loaders:
        try:
            loader(str(path))
        except InputError:
            loaded = False
    return loaded


def test_mutated_files_load_or_raise_input_error(valid):
    root, paths = valid
    gold = load_dataset(str(paths["dataset"]))
    rng = random.Random(SEED)
    outcomes = {}
    for kind, path in sorted(paths.items()):
        mutant = root / f"{kind}.mutant"
        for text in _mutants(rng, kind, path, MUTANTS_PER_FILE):
            mutant.write_text(text, encoding="utf-8")
            outcomes.setdefault(kind, set()).add(_loads(kind, mutant, gold))
    # Each kind has mutants that load and mutants that are refused, so the
    # mutations reach past the first checks.
    assert outcomes == {kind: {True, False} for kind in paths}


def test_the_cli_exits_0_or_2_on_mutated_files_and_prints_no_traceback(valid):
    root, paths = valid
    data, run = str(paths["dataset"]), root / "run"
    tagger, rel = str(run / "tagger_model.json"), str(run / "relation_model.json")
    predict = ("--output-dir", str(root / "cli-out"), "predict", "--data", data)
    argvs = {
        "dataset": lambda p: ("stats", p),
        "tagger_model": lambda p: (*predict, "--tagger-model", p, "--relation-model", rel),
        "relation_model": lambda p: (*predict, "--tagger-model", tagger, "--relation-model", p),
        "conll": lambda p: ("evaluate", "--gold", data, "--pred-conll", p),
        # Last: a config that loads runs the pipeline, which may write over
        # the run whose files the other kinds mutate.
        "config": lambda p: ("pipeline", p),
    }
    gold = load_dataset(data)
    rng = random.Random(SEED + 1)
    for kind, argv in argvs.items():
        # The first mutant that loads and the first that is refused.
        firsts = {}
        for i, text in enumerate(_mutants(rng, kind, paths[kind], 50)):
            mutant = root / f"{kind}.cli-mutant{i}"
            mutant.write_text(text, encoding="utf-8")
            firsts.setdefault(_loads(kind, mutant, gold), mutant)
        for loads, mutant in sorted(firsts.items()):
            done = cli_process(argv(str(mutant)), cwd=str(root))
            err = done.stderr.decode("utf-8", errors="backslashreplace")
            assert done.returncode in ((0, 2) if loads else (2,)), (kind, mutant, err)
            assert "Traceback" not in err, err
