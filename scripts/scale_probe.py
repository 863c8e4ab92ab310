"""Time the CLI chain at a chosen number of entities.

    python3 scripts/scale_probe.py --entities 10000 [--task sic|healthcare] [--workdir DIR]

Writes a synthetic entity CSV from the fixed ``SEED``, starts the in-package
mock search and LLM servers (no latency) in a process of their own, and runs
``acquire --sources gsnip10,gptsum``, then ``build``, ``train``, ``predict``
and ``eval`` on ``gsnip10`` and ``ablate --ks 1,10``, each in a fresh process. It prints one JSON object:
per command its exit code, wall time, CPU time and peak RSS; the bytes of the
cache, the corpora, ``finetune/`` and the model; each split's row count; and
the stored features (nonzeros) of the train corpus, so that memory per
training row is read from two probes' outputs. It checks no bound.

Each command runs under a fresh, small parent process that reads the
command's peak RSS from ``RUSAGE_CHILDREN``: a child's ``ru_maxrss`` starts
from its parent's peak at the fork, so the probe cannot read it directly.
Without ``--workdir`` the inputs and the run go to a temporary directory that
is removed afterwards.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = (
    ("acquire", "--sources", "gsnip10,gptsum"),
    ("build", "--sources", "gsnip10"),
    ("train", "--sources", "gsnip10"),
    ("predict", "--sources", "gsnip10"),
    ("eval", "--sources", "gsnip10"),
    ("ablate", "--ks", "1,10"),
)
VOCAB = 20000
SEED = 0
SNIPPETS, SNIPPET_WORDS, CLASS_WORDS, SUMMARY_WORDS = 10, 22, 4, 60


def _words(rng: random.Random, vocab: list[str], cid: str, n: int) -> str:
    """n words: random vocabulary words, then the class word CLASS_WORDS times."""
    return " ".join(rng.choices(vocab, k=n - CLASS_WORDS) + [f"class{cid}"] * CLASS_WORDS)


def _inputs(entities: int, task: str, workdir: Path) -> Path:
    """Write entities.csv and the mock servers' fixtures.json; returns the CSV."""
    from taxotext.taxonomy import TaskId, load_scheme

    scheme = load_scheme(TaskId.SIC if task == "sic" else TaskId.HEALTHCARE)
    codes = sorted(scheme.code_map)  # healthcare: raw taxonomy codes
    class_ids = list(scheme.ids)
    rng = random.Random(SEED)
    vocab = [f"w{i}" for i in range(VOCAB)]
    rows, snippets, summaries = [], {}, {}
    for i in range(entities):
        if task == "sic":
            cid = class_ids[i % len(class_ids)]
            raw_code = f"{cid}{rng.randrange(100):02d}"
        else:
            raw_code = codes[i % len(codes)]
            cid = scheme.code_map[raw_code].id
        name = f"Entity {i:06d}"
        rows.append((f"e{i:06d}", name, raw_code, ""))
        snippets[name] = [_words(rng, vocab, cid, SNIPPET_WORDS) for _ in range(SNIPPETS)]
        summaries[name] = _words(rng, vocab, cid, SUMMARY_WORDS) + "."
    csv_path = workdir / "entities.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "name", "raw_code", "split"])
        writer.writerows(rows)
    fixtures = {"task": task, "snippets": snippets, "summaries": summaries}
    (workdir / "fixtures.json").write_text(json.dumps(fixtures), encoding="utf-8")
    return csv_path


def _serve(fixtures_path: str) -> int:
    """Serve the fixtures on the mock servers until stdin closes."""
    from taxotext.mockserver import MockLlmServer, MockSearchServer
    from taxotext.summarize import PROMPT_TEMPLATES

    fixtures = json.loads(Path(fixtures_path).read_text(encoding="utf-8"))
    template = PROMPT_TEMPLATES["GPT_SIC" if fixtures["task"] == "sic" else "GPT_HC"]
    by_prompt = {template.fill(name): text for name, text in fixtures["summaries"].items()}
    with MockSearchServer(fixtures["snippets"]) as search, MockLlmServer(
        lambda messages, model: by_prompt.get(messages[-1]["content"], "")
    ) as llm:
        print(json.dumps({"search": search.base_url, "llm": llm.base_url}), flush=True)
        sys.stdin.read()
    return 0


def _measure(argv: list[str]) -> int:
    """Run one command as this process's only child and print its cost."""
    import resource

    start = time.perf_counter()
    code = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "code": code,
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux reports KiB
    }))
    return 0


def _bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def _corpus_counts(corpus: Path) -> tuple[dict[str, int], int]:
    """Rows per split of a built corpus, and the nonzeros of its train rows."""
    from taxotext.features import featurize

    rows, train_features = {}, 0
    for split in ("train", "dev", "test"):
        rows[split] = 0
        with open(corpus / f"{split}.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rows[split] += 1
                if split == "train":
                    train_features += featurize(json.loads(line)["input_text"]).nnz
    return rows, train_features


def probe(entities: int, task: str, workdir: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), "SEARCH_API_KEY": "probe", "LLM_API_KEY": "probe"}
    dataset = _inputs(entities, task, workdir)
    mocks = subprocess.Popen(
        [sys.executable, __file__, "--serve", str(workdir / "fixtures.json")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        urls = json.loads(mocks.stdout.readline())
        config = workdir / "probe.ini"
        config.write_text("\n".join([
            "[task]", f"name = {task}", f"dataset = {dataset}",
            "[acquisition]", "top_k = 10", "max_parallel = 2",
            f"search_base_url = {urls['search']}", f"llm_base_url = {urls['llm']}",
        ]) + "\n", encoding="utf-8")
        commands = {}
        for argv in COMMANDS:
            cli = [sys.executable, "-m", "taxotext.cli", "--config", str(config),
                   "--runs-dir", str(workdir / "runs"), "--run-id", "probe", *argv]
            out = subprocess.run([sys.executable, __file__, "--measure", *cli],
                                 env=env, capture_output=True, text=True, check=True).stdout
            commands[argv[0]] = json.loads(out)
    finally:
        mocks.stdin.close()
        mocks.wait(timeout=60)
        mocks.stdout.close()
    run = workdir / "runs" / "probe"
    rows, train_features = _corpus_counts(run / "corpus" / "gsnip10")
    return {
        "entities": entities,
        "task": task,
        "commands": commands,
        "bytes": {name: _bytes(run / name) for name in ("cache", "corpus", "finetune", "model")},
        "rows": rows,
        "train_features": train_features,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        return _serve(argv[1])
    if argv[:1] == ["--measure"]:
        return _measure(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entities", type=int, required=True)
    parser.add_argument("--task", choices=("sic", "healthcare"), default="sic")
    parser.add_argument("--workdir", help="keep the inputs and the run here")
    args = parser.parse_args(argv)
    if args.entities < 1:
        parser.error("--entities must be at least 1")
    sys.path.insert(0, str(SRC))
    if args.workdir:
        if (Path(args.workdir) / "runs").exists():
            parser.error(f"{args.workdir} already holds a run; a probe starts from a cold cache")
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        result = probe(args.entities, args.task, Path(args.workdir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = probe(args.entities, args.task, Path(tmp))
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
