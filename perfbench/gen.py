"""Seeded synthetic inputs for the benchmark workloads.

Everything the pipeline sees (entity CSV, search snippets, model summaries)
comes from here and depends only on the workload spec and the seed. Text is
drawn from a Zipfian shared vocabulary plus a small per-class vocabulary.
Class evidence is noisy (a minority of words, some from other classes, and
names carry only a little), so macro-F1 stays well below 1 and rises with
snippet depth, which gives the output checks teeth.
"""

from __future__ import annotations

import csv
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path

SHARED_VOCAB = 12000
CLASS_VOCAB = 80
ZIPF_S = 1.1
SNIPPET_WORDS = 28
SUMMARY_WORDS = 180
SENTENCE_WORDS = 12
REFUSAL_SHARE = 0.05
# Per-word chance of drawing from the entity's own class vocabulary, and
# from a random other class (label noise in the text).
SNIPPET_SIGNAL = 0.2
SUMMARY_SIGNAL = 0.1
NOISE = 0.01
NAME_SIGNAL = 0.25

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"] + ["ar", "en", "is", "on", "ul"]
_NAME_SUFFIXES = ("Group", "Holdings", "Partners", "Services", "Works", "Associates", "Company")


@dataclass(frozen=True)
class WorkloadSpec:
    """Sizes and shape of one workload's synthetic inputs."""

    name: str
    task: str  # "SIC" or "HEALTHCARE"
    entities: int
    depth: int  # search snippets per entity
    summaries: bool
    # (train, dev, test) counts written to the split column; None leaves it
    # empty so the program's seeded splitter assigns splits.
    splits: tuple[int, int, int] | None


@dataclass
class Inputs:
    rows: list[tuple[str, str, str, str]]  # entity_id, name, raw_code, split
    snippets: dict[str, list[str]]  # entity name -> ranked snippets
    summaries: dict[str, str]  # entity name -> summary or refusal text
    refusals: int


def _rng(spec: WorkloadSpec, seed: int, part: str) -> random.Random:
    return random.Random(zlib.crc32(f"{spec.name}/{part}".encode()) * 1_000_003 + seed)


def _make_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < n:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _classes(task: str) -> tuple[list[str], dict[str, list[str]]]:
    """Category ids and, for healthcare, the raw codes of each category."""
    from taxotext.taxonomy import TaskId, load_scheme

    scheme = load_scheme(TaskId(task))
    codes: dict[str, list[str]] = {}
    for code, label in sorted(scheme.code_map.items()):
        codes.setdefault(label.id, []).append(code)
    return list(scheme.ids), codes


class _Vocab:
    def __init__(self, rng: random.Random, class_ids: list[str]):
        taken: set[str] = set()
        self.shared = _make_words(rng, SHARED_VOCAB, taken)
        cum, total = [], 0.0
        for r in range(1, SHARED_VOCAB + 1):
            total += r ** -ZIPF_S
            cum.append(total)
        self.cum = cum
        self.by_class = {cid: _make_words(rng, CLASS_VOCAB, taken) for cid in class_ids}
        self.class_ids = class_ids

    def words(self, rng: random.Random, cid: str, n: int, signal: float) -> list[str]:
        out = []
        for _ in range(n):
            u = rng.random()
            if u < signal:
                out.append(rng.choice(self.by_class[cid]))
            elif u < signal + NOISE:
                out.append(rng.choice(self.by_class[rng.choice(self.class_ids)]))
            else:
                out.append(rng.choices(self.shared, cum_weights=self.cum)[0])
        return out


def generate(spec: WorkloadSpec, seed: int) -> Inputs:
    """Deterministic inputs for (spec, seed)."""
    class_ids, codes = _classes(spec.task)
    vocab = _Vocab(_rng(spec, seed, "vocab"), class_ids)
    rng = _rng(spec, seed, "entities")

    labels = [class_ids[i % len(class_ids)] for i in range(spec.entities)]
    rng.shuffle(labels)
    if spec.splits is None:
        splits = [""] * spec.entities
    else:
        splits = [s for s, n in zip(("train", "dev", "test"), spec.splits) for _ in range(n)]
        if len(splits) != spec.entities:
            raise ValueError(f"{spec.name}: split counts do not add up to {spec.entities}")
        rng.shuffle(splits)

    rows, snippets, summaries, names = [], {}, {}, set()
    refused = set(rng.sample(range(spec.entities), round(REFUSAL_SHARE * spec.entities)))
    for i, cid in enumerate(labels):
        while True:
            parts = vocab.words(rng, cid, rng.randint(1, 2), NAME_SIGNAL)
            name = " ".join(p.capitalize() for p in parts) + " " + rng.choice(_NAME_SUFFIXES)
            if name not in names:
                names.add(name)
                break
        if spec.task == "SIC":
            raw_code = f"{cid}{rng.randrange(100):02d}"
        else:
            raw_code = rng.choice(codes[cid])
        rows.append((f"e{i + 1:05d}", name, raw_code, splits[i]))
        snippets[name] = [
            " ".join(vocab.words(rng, cid, SNIPPET_WORDS, SNIPPET_SIGNAL))
            for _ in range(spec.depth)
        ]
        if spec.summaries:
            if i in refused:
                summaries[name] = f"I'm sorry, but I don't have reliable information about {name}."
            else:
                words = vocab.words(rng, cid, SUMMARY_WORDS, SUMMARY_SIGNAL)
                sentences = [
                    " ".join(words[j : j + SENTENCE_WORDS]).capitalize() + "."
                    for j in range(0, SUMMARY_WORDS, SENTENCE_WORDS)
                ]
                summaries[name] = " ".join(sentences)
    return Inputs(rows, snippets, summaries, len(refused) if spec.summaries else 0)


def write_inputs(inputs: Inputs, workdir: Path) -> None:
    """Entity CSV for the program, fixtures for the mock servers."""
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "entities.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["entity_id", "name", "raw_code", "split"])
        writer.writerows(inputs.rows)
    fixtures = {"snippets": inputs.snippets, "summaries": inputs.summaries}
    (workdir / "fixtures.json").write_text(json.dumps(fixtures, sort_keys=True), encoding="utf-8")
