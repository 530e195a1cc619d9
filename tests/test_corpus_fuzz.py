"""Seeded plan-file mutations: each drops a key, changes a value's JSON type,
replaces a node's children, duplicates a query_id or cuts the file text short
in a small valid corpus. Loading must succeed or raise OpembedError, and CLI
embed must succeed or end in exactly one "error:" line, never a traceback.
A second stream sets plan numerics and attribute statistics to extreme
magnitudes, at and past plans.MAX_PLAN_MAGNITUDE; there a CLI embed that
succeeds must write finite rows.
"""

import json
import random

import numpy as np
import pytest
from click.testing import CliRunner

from opembed import nn, store
from opembed.cli import main
from opembed.errors import OpembedError
from opembed.featurize import fit_encode
from opembed.hourglass import HourglassSpec, build, cut_off, train_embedding
from opembed.plans import (
    ATTR_STAT_FIELDS,
    CORE_NUMERIC_FIELDS,
    MAX_PLAN_MAGNITUDE,
    OPTIONAL_NUMERIC_FIELDS,
    corpus_to_dict,
    load_corpus,
)
from opembed.synth import SynthConfig, generate

# one JSON value of each type, an empty container of each kind, and a
# one-entry container of each kind
VALUES = (None, True, False, 0, -1, 2.5, "", "x", [], {}, [1, "a"], {"a": 1})
IN_PROCESS_MUTATIONS = 300
CLI_MUTATIONS = 12
# at the bound, just past it and near float64's largest, of either sign
EXTREMES = tuple(sign * v for v in (MAX_PLAN_MAGNITUDE, MAX_PLAN_MAGNITUDE * 1.01, 1e308)
                 for sign in (1, -1))
EXTREME_MUTATIONS = 32
NUMERIC_KEYS = CORE_NUMERIC_FIELDS + OPTIONAL_NUMERIC_FIELDS + ATTR_STAT_FIELDS


@pytest.fixture(scope="module")
def valid():
    """A 6-query plan document and a matching 4-dim encoder bundle."""
    corpus = generate(SynthConfig(n_queries=6, seed=11))
    schema, table = fit_encode(corpus)
    enet = build(HourglassSpec(hidden_dims=(8,), embedding_dim=4), schema)
    train_embedding(enet, table.X, table.children, nn.SgdConfig(epochs=1))
    return corpus_to_dict(corpus), cut_off(enet), schema


def _nodes(doc):
    """Every plan node of a plan document, depth first."""
    stack = [q["plan"] for q in doc["queries"]]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node["children"])


def _mutate(doc, rng) -> str:
    """One seeded mutation of a deep copy of doc, as plan-file text."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_nodes(doc))
    obj = rng.choice([doc, *doc["queries"], *nodes])
    kind = rng.choice(("drop-key", "retype", "children", "duplicate-id", "cut"))
    if kind == "drop-key":
        del obj[rng.choice(sorted(obj))]
    elif kind == "retype":
        key = rng.choice(sorted(obj))
        obj[key] = rng.choice([v for v in VALUES if type(v) is not type(obj[key])])
    elif kind == "children":
        rng.choice(nodes)["children"] = rng.choice(VALUES)
    elif kind == "duplicate-id":
        first, second = rng.sample(doc["queries"], 2)
        second["query_id"] = first["query_id"]
    text = json.dumps(doc, indent=1)
    return text[:rng.randrange(len(text))] if kind == "cut" else text


def test_mutated_corpus_loads_or_raises_opembed_error(valid, tmp_path):
    rng = random.Random(2019)
    path = tmp_path / "plans.json"
    for i in range(IN_PROCESS_MUTATIONS):
        text = _mutate(valid[0], rng)
        path.write_text(text)
        try:
            load_corpus(path)
        except OpembedError:
            pass
        except Exception as exc:
            pytest.fail(f"mutation {i} raised {type(exc).__name__}: {exc}\n{text}")


def test_mutated_corpus_embeds_or_ends_in_one_error_line(valid, tmp_path):
    rng = random.Random(2020)
    doc, encoder, schema = valid
    bundle = store.save_encoder_bundle(tmp_path / "encoder.opeb", encoder, schema)
    path, out = tmp_path / "plans.json", tmp_path / "embeddings.csv"
    runner = CliRunner()
    for i in range(CLI_MUTATIONS):
        path.write_text(_mutate(doc, rng))
        result = runner.invoke(main, ["embed", "--corpus", str(path), "--encoder", str(bundle),
                                      "--out", str(out)])
        lines = result.stderr.strip().splitlines()
        if result.exit_code:
            assert result.exit_code == 1 and len(lines) == 1, (i, result.output)
            assert lines[0].startswith("error: "), (i, lines)


def _extremes(doc, rng) -> str:
    """A deep copy of doc, as plan-file text, with one or two numerics or
    attribute-statistic entries of its nodes set to values in EXTREMES."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_nodes(doc))
    for _ in range(rng.randint(1, 2)):
        node = rng.choice(nodes)
        key = rng.choice([k for k in NUMERIC_KEYS if node.get(k) not in (None, [])])
        value = rng.choice(EXTREMES)
        if key in ATTR_STAT_FIELDS:
            node[key][rng.randrange(len(node[key]))] = value
        else:
            node[key] = value
    return json.dumps(doc, indent=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_magnitudes_load_and_embed_to_finite_rows_or_one_error_line(valid, tmp_path):
    rng = random.Random(2021)
    doc, encoder, schema = valid
    bundle = store.save_encoder_bundle(tmp_path / "encoder.opeb", encoder, schema)
    path, out = tmp_path / "plans.json", tmp_path / "embeddings.csv"
    runner = CliRunner()
    outcomes = []
    for i in range(EXTREME_MUTATIONS):
        text = _extremes(doc, rng)
        path.write_text(text)
        try:
            load_corpus(path)
            outcomes.append("loaded")
        except OpembedError:
            outcomes.append("refused")
        except Exception as exc:
            pytest.fail(f"mutation {i} raised {type(exc).__name__}: {exc}\n{text}")
        out.unlink(missing_ok=True)
        result = runner.invoke(main, ["embed", "--corpus", str(path), "--encoder", str(bundle),
                                      "--out", str(out)])
        lines = result.stderr.strip().splitlines()
        if result.exit_code:
            assert result.exit_code == 1 and len(lines) == 1, (i, result.output)
            assert lines[0].startswith("error: "), (i, lines)
        else:
            rows = np.array([line.split(",")[1:] for line in out.read_text().splitlines()[1:]],
                            dtype=float)
            assert len(rows) and np.isfinite(rows).all(), i
    # the stream reaches both sides of the bound
    assert set(outcomes) == {"loaded", "refused"}, outcomes
