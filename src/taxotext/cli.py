"""Command-line pipeline: acquire, build, train, predict, eval, sweep, ablate, baseline.

Every invocation works inside a run directory (runs/<run-id>/ by default)
holding the cache, corpora, model, predictions, and reports for one
experiment. `main` resolves the inputs the commands share; each handler checks
its own, then records its manifest entry before any artifact. Report files are
byte-identical across reruns with the same run id, seed, and cache.

Exit codes: 0 success, 2 configuration problems, 3 provider/network
failures, 4 data errors. Configuration is checked before the manifest write,
so a rejected command leaves the manifest as it was.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import uuid
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from .ablation import ablate_snippets, snippet_depths, write_ablation_csv
from .acquire import SourceSpec, TextAcquirer, parse_source_signature
from .cache import TextCache
from .config import PipelineConfig, finite_float, load_config, parse_list, snapshot
from .corpus import (
    build_instances, emit_chat_finetune, emit_tabular, load_tabular, read_json_rows,
)
from .errors import (
    AuthError, ConfigError, EmptyCompletion, HttpError, LengthMismatch,
    MalformedResponse, MissingText, ParseError, TaxotextError, UnknownLabel,
)
from .files import write_file
from .hashing import fingerprint
from .http import RetryPolicy, TokenBucket
from .manifest import RunManifest, load_manifest, save_manifest
from .metrics import (
    confusion, load_report, macro_report, per_category_table, threshold_sweep,
    write_class_scores_csv, write_per_category_csv, write_report, write_sweep_csv,
)
from .remote import INVALID, INVALID_LABEL, prompt_baseline
from .search import SearchClient
from .softmax import Prediction, load_model, predict_instances, save_model, train
from .summarize import LlmClient
from .taxonomy import Dataset, Split, TaxonomyScheme, load_dataset, load_scheme, split_dataset
from .texts import Source

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_DATA = 4

_NETWORK_ERRORS = (HttpError, AuthError, MalformedResponse, EmptyCompletion)


@dataclass
class RunContext:
    """One command's run directory and the inputs `main` resolved from its flags.

    `dataset`, `spec` and `split` are set where the command takes `--dataset`,
    one `--sources` signature, or `--split`. The handler checks its own inputs,
    then calls `record` once, before its first output.
    """

    config: PipelineConfig
    run_id: str
    run_dir: Path
    cache: TextCache
    command: str
    scheme: TaxonomyScheme
    dataset: Dataset | None = None
    spec: SourceSpec | None = None
    split: Split | None = None

    def record(self, options: dict):
        """Append this command to the manifest, naming the dataset, signature and split it read."""
        manifest = load_manifest(self.run_dir)
        if manifest is None:
            manifest = RunManifest.new(self.run_id, snapshot(self.config))
        else:
            manifest.config = snapshot(self.config)
            manifest.config_fingerprint = fingerprint(manifest.config)
        resolved = {}
        if self.dataset is not None:
            manifest.dataset_fingerprint = self.dataset.fingerprint
        if self.spec is not None:
            manifest.note_signature(self.spec.signature)
            resolved["sources"] = self.spec.signature
        if self.split is not None:
            resolved["split"] = self.split.value
        manifest.record_command(self.command, {**resolved, **options})
        save_manifest(manifest, self.run_dir)


# --- plumbing ---------------------------------------------------------------


def _generate_run_id() -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    return f"run-{stamp}-{uuid.uuid4().hex[:6]}"


def _parse_signature(ctx: RunContext, signature: str) -> SourceSpec:
    cfg = ctx.config
    try:
        return parse_source_signature(
            signature,
            cfg.task,
            top_k=cfg.top_k,
            gpt_model=cfg.gpt_model,
            llama_model=cfg.llama_model,
            summary_max_tokens=cfg.summary_max_tokens,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_split(raw: str) -> Split:
    try:
        return Split(raw.lower())
    except ValueError as exc:
        raise ConfigError(f"unknown split {raw!r}; expected train, dev, or test") from exc


def _parse_list(raw: str, cast, what: str) -> tuple:
    try:
        return parse_list(raw, cast)
    except ValueError as exc:
        raise ConfigError(f"bad {what} list: {raw!r}") from exc


def _existing(explicit: str | None, default: Path, what: str, producer: str) -> Path:
    """The explicit path, else the run-directory default; it must be a file."""
    path = Path(explicit) if explicit else default
    if not path.is_file():
        raise ConfigError(f"no {what} file at {path}; run '{producer}' first")
    return path


def _load_split_dataset(ctx: RunContext, explicit: str | None) -> Dataset:
    path = explicit or ctx.config.dataset
    if not path:
        raise ConfigError("no dataset given; pass --dataset or set [task] dataset in the config")
    if not Path(path).is_file():
        raise ConfigError(f"dataset not found: {path}")
    dataset = load_dataset(path, ctx.scheme)
    return split_dataset(dataset, ctx.config.ratios, seed=ctx.config.split_seed)


def _client(ctx: RunContext, cls, url_key: str):
    """A provider client for the configured base URL, with retry and rate limit."""
    cfg = ctx.config
    base_url = getattr(cfg, url_key)
    if not base_url:
        raise ConfigError(f"{url_key} is not configured")
    rate = cfg.rate_per_second
    return cls(
        base_url,
        policy=RetryPolicy(max_attempts=cfg.max_attempts, base_backoff=cfg.base_backoff),
        rate_limit=TokenBucket(rate) if rate > 0 else None,
    )


def _make_acquirer(ctx: RunContext, specs: tuple[SourceSpec, ...]) -> TextAcquirer:
    sources = {leaf.source for spec in specs for leaf in spec.leaves}
    search = _client(ctx, SearchClient, "search_base_url") if Source.GSNIP in sources else None
    needs_llm = sources & {Source.GPTSUM, Source.LLAMASUM}
    llm = _client(ctx, LlmClient, "llm_base_url") if needs_llm else None
    return TextAcquirer(
        ctx.config.task, ctx.cache, search_client=search, llm_client=llm,
        max_parallel=ctx.config.max_parallel,
    )


def write_predictions(predictions, path: str | Path) -> Path:
    rows = (
        {"entity_id": p.entity_id, "label": p.label.id, "confidence": p.confidence}
        for p in predictions
    )
    return write_file(path, (json.dumps(row, ensure_ascii=False) + "\n" for row in rows))


def load_predictions(path: str | Path, scheme) -> list[Prediction]:
    """Predictions from JSONL; a label outside the scheme (bar INVALID), or a
    confidence neither null nor a number, is a data error."""
    by_id = {**scheme.by_id, INVALID: INVALID_LABEL}
    out = []
    for rownum, row in read_json_rows(path, ("entity_id", "label")):
        label = by_id.get(row["label"]) if isinstance(row["label"], str) else None
        if label is None:
            raise UnknownLabel(f"row {rownum}: unknown label {row['label']!r} in {path}")
        confidence = row.get("confidence")
        if confidence is not None and type(confidence) not in (int, float):  # bool is no number
            raise ParseError(f"confidence {confidence!r} is not a number in {path}", row=rownum)
        out.append(Prediction(entity_id=row["entity_id"], label=label, confidence=confidence))
    return out


def _scored_predictions(ctx: RunContext, args):
    """The eval/sweep inputs: predictions path and rows, and the gold labels in
    prediction order; the ids must match the split's exactly."""
    pred_path = _existing(args.predictions, _predictions_path(ctx), "predictions", "predict")
    predictions = load_predictions(pred_path, ctx.scheme)
    by_id = {r.entity_id: r.label for r in ctx.dataset.by_split(ctx.split)}
    pred_ids = [p.entity_id for p in predictions]
    if set(pred_ids) != set(by_id) or len(pred_ids) != len(by_id):
        raise LengthMismatch(
            f"predictions cover {len(set(pred_ids))} entities, "
            f"split {ctx.split.value} has {len(by_id)}"
        )
    return pred_path, predictions, [by_id[i] for i in pred_ids]


def _corpus_path(ctx: RunContext, split: Split) -> Path:
    return ctx.run_dir / "corpus" / ctx.spec.signature / f"{split.value}.jsonl"


def _predictions_path(ctx: RunContext) -> Path:
    return ctx.run_dir / "predictions" / f"{ctx.spec.signature}-{ctx.split.value}.jsonl"


# --- commands ---------------------------------------------------------------


def cmd_acquire(ctx: RunContext, args) -> int:
    specs = _parse_list(args.signatures, lambda s: _parse_signature(ctx, s), "source")
    if not specs:
        raise ConfigError("no source signatures given")
    acquirer = _make_acquirer(ctx, specs)
    ctx.record({"sources": [s.signature for s in specs], "refresh": bool(args.refresh)})
    try:
        # every provider source of every spec in one call, so that the search
        # and LLM lanes fetch at the same time, and every failure is kept
        _, errors = acquirer.acquire_all(
            ctx.dataset.records, *(leaf for spec in specs for leaf in spec.leaves),
            refresh=args.refresh,
        )
    finally:
        for client in (acquirer.search_client, acquirer.llm_client):
            if client is not None:
                client.close()
    stats = acquirer.stats
    print(
        f"acquired: fetched={stats['fetched']} cache_hits={stats['hits']} "
        f"refusals={stats['refusals']} failures={stats['failures']}"
    )
    if not errors:
        return EXIT_OK
    for key, exc in sorted(errors.items())[:5]:  # keyed (entity_id, signature) for several sources
        where = key if isinstance(key, str) else f"{key[0]} ({key[1]})"
        print(f"error: {where}: {exc}", file=sys.stderr)
    # A data error needs a fix that a rerun will not bring, so it decides the exit code.
    if all(isinstance(exc, _NETWORK_ERRORS) for exc in errors.values()):
        return EXIT_NETWORK
    return EXIT_DATA


def cmd_build(ctx: RunContext, args) -> int:
    dataset, signature = ctx.dataset, ctx.spec.signature
    texts = TextAcquirer(ctx.config.task, ctx.cache).cached_texts(dataset.records, ctx.spec)
    ctx.record({"strict": bool(args.strict)})
    for split in Split:
        result = build_instances(dataset.by_split(split), texts, signature, strict=args.strict)
        tab_path = emit_tabular(result.instances, _corpus_path(ctx, split))
        chat_path = emit_chat_finetune(
            result.instances,
            ctx.scheme,
            ctx.run_dir / "finetune" / signature / f"{split.value}.jsonl",
            with_labels=split is not Split.TEST,
        )
        print(
            f"built {split.value}: {len(result.instances)} instances "
            f"({result.empty_count} empty) -> {tab_path} and {chat_path}"
        )
    return EXIT_OK


def cmd_train(ctx: RunContext, args) -> int:
    corpus_path = _existing(args.corpus, _corpus_path(ctx, Split.TRAIN), "training corpus", "build")
    instances = load_tabular(corpus_path, ctx.scheme)
    ctx.record({"corpus": str(corpus_path)})
    model = train(instances, ctx.scheme, ctx.config.training)
    model_path = save_model(model, ctx.run_dir / "model" / f"{ctx.spec.signature}.model")
    print(f"trained on {len(instances)} instances -> {model_path}")
    return EXIT_OK


def cmd_predict(ctx: RunContext, args) -> int:
    corpus_path = _existing(args.corpus, _corpus_path(ctx, ctx.split), "corpus", "build")
    model_path = _existing(
        args.model, ctx.run_dir / "model" / f"{ctx.spec.signature}.model", "model", "train"
    )
    instances = load_tabular(corpus_path, ctx.scheme)
    model = load_model(model_path, ctx.scheme)
    ctx.record({"corpus": str(corpus_path), "model": str(model_path)})
    predictions = predict_instances(model, instances)
    out_path = write_predictions(predictions, _predictions_path(ctx))
    print(f"predicted {len(predictions)} instances -> {out_path}")
    return EXIT_OK


def cmd_eval(ctx: RunContext, args) -> int:
    pred_path, predictions, golds = _scored_predictions(ctx, args)
    if args.compare:
        earlier = load_report(_existing(args.compare, None, "report", "eval"), ctx.scheme)
    ctx.record({"predictions": str(pred_path), "compare": args.compare})
    matrix = confusion(golds, [p.label for p in predictions], ctx.scheme)
    report = macro_report(
        matrix,
        config_fingerprint=fingerprint(snapshot(ctx.config)),
        run_id=ctx.run_id,
    )
    reports_dir = ctx.run_dir / "reports"
    stem = f"{ctx.spec.signature}-{ctx.split.value}"
    report_path = write_report(report, reports_dir / f"{stem}-eval.json")
    write_class_scores_csv(report, reports_dir / f"{stem}-class_scores.csv")
    print(
        f"macro_p={report.macro_p:.4f} macro_r={report.macro_r:.4f} "
        f"macro_f1={report.macro_f1:.4f} -> {report_path}"
    )
    if args.compare:
        rows = per_category_table(earlier, report)
        cmp_path = write_per_category_csv(rows, reports_dir / f"{stem}-compare.csv")
        print(f"per-category comparison -> {cmp_path}")
    return EXIT_OK


def cmd_sweep(ctx: RunContext, args) -> int:
    pred_path, predictions, golds = _scored_predictions(ctx, args)
    thresholds = ctx.config.thresholds
    if args.thresholds:
        thresholds = _parse_list(args.thresholds, finite_float, "threshold")
    inclusive = bool(args.inclusive) or ctx.config.inclusive_thresholds
    options = {"predictions": str(pred_path), "thresholds": list(thresholds), "inclusive": inclusive}
    ctx.record(options)
    points = threshold_sweep(predictions, golds, ctx.scheme, thresholds, inclusive=inclusive)
    sweep_path = ctx.run_dir / "reports" / f"{ctx.spec.signature}-{ctx.split.value}-sweep.csv"
    out_path = write_sweep_csv(points, sweep_path)
    for p in points:
        print(
            f"t={p.threshold:.2f} precision={p.precision:.4f} recall={p.recall:.4f} "
            f"coverage={p.coverage:.4f} n={p.n_labeled}"
        )
    print(f"sweep -> {out_path}")
    return EXIT_OK


def cmd_ablate(ctx: RunContext, args) -> int:
    top_k = ctx.config.top_k  # the depth 'acquire --sources gsnip' fills the cache at
    if args.cached_depth not in (None, top_k):
        raise ConfigError(f"--cached-depth must equal top_k ({top_k}), got {args.cached_depth}")
    try:
        ks = snippet_depths(_parse_list(args.ks, int, "k") if args.ks else None, top_k)
    except ValueError as exc:
        raise ConfigError(f"--ks needs positive snippet counts: {args.ks!r}") from exc
    ctx.record({"ks": ks})
    points = ablate_snippets(
        ctx.dataset, ctx.cache, ks, cached_depth=top_k, train_config=ctx.config.training
    )
    out_path = write_ablation_csv(points, ctx.run_dir / "reports" / "ablation.csv")
    for point in points:
        r = point.report
        print(f"k={point.k} macro_p={r.macro_p:.4f} macro_r={r.macro_r:.4f} macro_f1={r.macro_f1:.4f}")
    print(f"ablation -> {out_path}")
    return EXIT_OK


def cmd_baseline(ctx: RunContext, args) -> int:
    client = _client(ctx, LlmClient, "llm_base_url")
    records = ctx.dataset.by_split(ctx.split)
    contexts = None
    if args.context_sources:
        spec = _parse_signature(ctx, args.context_sources)
        texts = TextAcquirer(ctx.config.task, ctx.cache).cached_texts(records, spec)
        missing = [r.entity_id for r in records if r.entity_id not in texts]
        if missing and args.strict:
            raise MissingText(f"no cached text for {len(missing)} entities (first: {missing[0]})")
        contexts = {
            r.entity_id: texts[r.entity_id].text
            for r in records
            if r.entity_id in texts and texts[r.entity_id].text
        }
    model_id = args.model or ctx.config.gpt_model
    ctx.record(
        {"model": model_id, "context_sources": args.context_sources, "strict": bool(args.strict)}
    )
    with client:
        predictions = prompt_baseline(
            records, ctx.scheme, client, model_id=model_id, contexts=contexts
        )
    out_path = write_predictions(
        predictions, ctx.run_dir / "predictions" / f"baseline-{ctx.split.value}.jsonl"
    )
    invalid = sum(1 for p in predictions if p.label.id == INVALID)
    print(f"baseline predicted {len(predictions)} entities ({invalid} unparseable) -> {out_path}")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _sources(help_text: str | None = None):
    return ("--sources", {"default": "gsnip", "help": help_text})


_DATASET = ("--dataset", {"help": "entity CSV (overrides the config)"})
_SPLIT = ("--split", {"default": "test"})
_PREDICTIONS = ("--predictions", {"help": "explicit predictions path"})

# name -> (handler, help, flags); flags are (name, add_argument kwargs)
_COMMANDS = {
    "acquire": (cmd_acquire, "fetch entity texts into the cache", [
        _DATASET,
        # a list the handler parses; `main` resolves the other commands' one signature
        ("--sources", {"dest": "signatures", "metavar": "SOURCES", "default": "gsnip",
                       "help": "comma-separated source signatures"}),
    ]),
    "build": (cmd_build, "emit corpus files from cached texts", [
        _DATASET,
        _sources("source signature (use + to combine)"),
    ]),
    "train": (cmd_train, "fit the hashed-feature softmax classifier", [
        _sources(),
        ("--corpus", {"help": "explicit training corpus path"}),
    ]),
    "predict": (cmd_predict, "classify a corpus split with a trained model", [
        _sources(),
        _SPLIT,
        ("--corpus", {"help": "explicit corpus path"}),
        ("--model", {"help": "explicit model path"}),
    ]),
    "eval": (cmd_eval, "score predictions against gold labels", [
        _DATASET,
        _sources(),
        _SPLIT,
        _PREDICTIONS,
        ("--compare", {"help": "earlier report JSON to diff per-category F1 against"}),
    ]),
    "sweep": (cmd_sweep, "precision/coverage tradeoff across confidence thresholds", [
        _DATASET,
        _sources(),
        _SPLIT,
        _PREDICTIONS,
        ("--thresholds", {"help": "comma-separated thresholds"}),
        ("--inclusive", {"action": "store_true", "help": "keep predictions at the threshold"}),
    ]),
    "ablate": (cmd_ablate, "retrain and score at several snippet depths", [
        _DATASET,
        ("--ks", {"help": "comma-separated snippet counts (default: 1,5,10,15,20 up to the depth)"}),
        ("--cached-depth", {"type": int, "help": "cache fill depth; must equal top_k if given"}),
    ]),
    "baseline": (cmd_baseline, "zero-shot classification by prompting a hosted model", [
        _DATASET,
        _SPLIT,
        ("--model", {"help": "hosted model id"}),
        ("--context-sources", {"help": "signature of cached texts to include in the prompt"}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxotext",
        description="Classify entities into industry and provider taxonomies from web text.",
    )
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--run-id", help="run directory name; generated when omitted")
    parser.add_argument("--runs-dir", default="runs", help="parent directory for runs")
    parser.add_argument("--refresh", action="store_true", help="re-fetch even on cache hits")
    parser.add_argument("--strict", action="store_true", help="fail on missing texts")
    parser.add_argument("--seed", type=int, default=None, help="override split and training seeds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be >= 0, got {args.seed}")
            training = replace(config.training, seed=args.seed)
            config = replace(config, split_seed=args.seed, training=training)
        run_id = args.run_id or _generate_run_id()
        run_dir = Path(args.runs_dir) / run_id
        cache_root = Path(config.cache_dir) if config.cache_dir else run_dir / "cache"
        ctx = RunContext(
            config=config, run_id=run_id, run_dir=run_dir, cache=TextCache(cache_root),
            command=args.command, scheme=load_scheme(config.task),
        )
        # in the order the handlers always read them, so the first bad input reported stays the same
        if "dataset" in args:
            ctx.dataset = _load_split_dataset(ctx, args.dataset)
        if "sources" in args:
            ctx.spec = _parse_signature(ctx, args.sources)
        if "split" in args:
            ctx.split = _parse_split(args.split)
        return _COMMANDS[args.command][0](ctx, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NETWORK_ERRORS as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except TaxotextError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
