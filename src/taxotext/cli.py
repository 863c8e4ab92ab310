"""Command-line pipeline: acquire, build, train, predict, eval, sweep, ablate, baseline.

Every invocation works inside a run directory (runs/<run-id>/ by default)
holding the cache, corpora, model, predictions, and reports for one
experiment. A manifest is written before any artifact, and report files are
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

from .ablation import DEFAULT_KS, ablate_snippets, write_ablation_csv
from .acquire import SourceSpec, TextAcquirer, parse_source_signature
from .cache import TextCache
from .config import PipelineConfig, load_config, snapshot
from .corpus import (
    build_instances, emit_chat_finetune, emit_tabular, load_tabular, read_json_rows,
)
from .errors import (
    AuthError, ConfigError, EmptyCompletion, HttpError, JobFailed, LengthMismatch,
    MalformedResponse, MissingText, TaxotextError,
)
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
from .taxonomy import CategoryLabel, Dataset, Split, load_dataset, load_scheme, split_dataset
from .texts import Source

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_DATA = 4

_NETWORK_ERRORS = (HttpError, AuthError, MalformedResponse, EmptyCompletion, JobFailed)


@dataclass
class RunContext:
    config: PipelineConfig
    run_id: str
    run_dir: Path
    cache: TextCache


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


def _signature_and_split(ctx: RunContext, args) -> tuple[str, Split]:
    return _parse_signature(ctx, args.sources).signature, _parse_split(args.split)


def _parse_list(raw: str, cast, what: str) -> tuple:
    """Comma-separated values through cast; blank parts are skipped."""
    try:
        return tuple(cast(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} list: {raw!r}") from exc


def _existing(explicit: str | None, default: Path, what: str, producer: str) -> Path:
    """The explicit path, else the run-directory default; it must exist."""
    path = Path(explicit) if explicit else default
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}; run '{producer}' first")
    return path


def _load_split_dataset(ctx: RunContext, args) -> Dataset:
    path = args.dataset or ctx.config.dataset
    if not path:
        raise ConfigError("no dataset given; pass --dataset or set [task] dataset in the config")
    scheme = load_scheme(ctx.config.task)
    dataset = load_dataset(path, scheme)
    return split_dataset(dataset, ctx.config.ratios, seed=ctx.config.split_seed)


def _write_manifest(
    ctx: RunContext, args, options: dict, *, dataset: Dataset | None = None,
    signature: str | None = None,
):
    """Record the invocation before any artifact it produces exists."""
    manifest = load_manifest(ctx.run_dir)
    if manifest is None:
        manifest = RunManifest.new(ctx.run_id, snapshot(ctx.config))
    else:
        manifest.config = snapshot(ctx.config)
        manifest.config_fingerprint = fingerprint(manifest.config)
    if dataset is not None:
        manifest.dataset_fingerprint = dataset.fingerprint
    if signature is not None:
        manifest.note_signature(signature)
    manifest.record_command(args.command, options)
    save_manifest(manifest, ctx.run_dir)


def _tree_sources(spec: SourceSpec) -> set[Source]:
    found = {spec.source}
    for component in spec.components:
        found |= _tree_sources(component)
    return found


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
        rate_limit=TokenBucket(rate) if rate and rate > 0 else None,
    )


def _make_acquirer(ctx: RunContext, specs: tuple[SourceSpec, ...]) -> TextAcquirer:
    sources = set().union(*(_tree_sources(spec) for spec in specs))
    search = _client(ctx, SearchClient, "search_base_url") if Source.GSNIP in sources else None
    needs_llm = sources & {Source.GPTSUM, Source.LLAMASUM}
    llm = _client(ctx, LlmClient, "llm_base_url") if needs_llm else None
    return TextAcquirer(
        ctx.config.task, ctx.cache, search_client=search, llm_client=llm,
        max_parallel=ctx.config.max_parallel,
    )


def _cached_texts(ctx: RunContext, dataset: Dataset, spec: SourceSpec) -> dict:
    acquirer = TextAcquirer(ctx.config.task, ctx.cache)
    texts = {}
    for record in dataset.records:
        hit = acquirer.acquire_cached(record, spec)
        if hit is not None:
            texts[record.entity_id] = hit
    return texts


def write_predictions(predictions, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in predictions:
            row = {"entity_id": p.entity_id, "label": p.label.id, "confidence": p.confidence}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def load_predictions(path: str | Path, scheme) -> list[Prediction]:
    by_id = scheme.by_id
    out = []
    for row in read_json_rows(path, ("entity_id", "label")):
        label_id = row["label"]
        if label_id in by_id:
            label = by_id[label_id]
        elif label_id == INVALID:
            label = INVALID_LABEL
        else:
            label = CategoryLabel(label_id, label_id)
        out.append(
            Prediction(entity_id=row["entity_id"], label=label, confidence=row.get("confidence"))
        )
    return out


def _aligned_golds(predictions, dataset: Dataset, split: Split):
    """Gold labels in prediction order; ids must match the split exactly."""
    by_id = {r.entity_id: r.label for r in dataset.by_split(split)}
    pred_ids = [p.entity_id for p in predictions]
    if set(pred_ids) != set(by_id) or len(pred_ids) != len(by_id):
        raise LengthMismatch(
            f"predictions cover {len(set(pred_ids))} entities, split {split.value} has {len(by_id)}"
        )
    return [by_id[i] for i in pred_ids]


def _scored_predictions(ctx: RunContext, args):
    """The eval/sweep inputs: dataset, signature, split, predictions path and rows, golds."""
    dataset = _load_split_dataset(ctx, args)
    signature, split = _signature_and_split(ctx, args)
    pred_path = _existing(
        args.predictions, _predictions_path(ctx, signature, split), "predictions", "predict"
    )
    predictions = load_predictions(pred_path, dataset.scheme)
    golds = _aligned_golds(predictions, dataset, split)
    return dataset, signature, split, pred_path, predictions, golds


def _corpus_path(ctx: RunContext, signature: str, split: Split) -> Path:
    return ctx.run_dir / "corpus" / signature / f"{split.value}.jsonl"


def _predictions_path(ctx: RunContext, signature: str, split: Split) -> Path:
    return ctx.run_dir / "predictions" / f"{signature}-{split.value}.jsonl"


# --- commands ---------------------------------------------------------------


def cmd_acquire(ctx: RunContext, args) -> int:
    dataset = _load_split_dataset(ctx, args)
    specs = _parse_list(args.sources, lambda s: _parse_signature(ctx, s), "source")
    if not specs:
        raise ConfigError("no source signatures given")
    acquirer = _make_acquirer(ctx, specs)
    options = {"sources": [s.signature for s in specs], "refresh": bool(args.refresh)}
    _write_manifest(ctx, args, options, dataset=dataset)
    all_errors: dict[str, Exception] = {}
    for spec in specs:
        _, errors = acquirer.acquire_all(dataset.records, spec, refresh=args.refresh)
        all_errors.update(errors)
    stats = acquirer.stats
    print(
        f"acquired: fetched={stats['fetched']} cache_hits={stats['hits']} "
        f"refusals={stats['refusals']} failures={stats['failures']}"
    )
    if not all_errors:
        return EXIT_OK
    for entity_id, exc in sorted(all_errors.items())[:5]:
        print(f"error: {entity_id}: {exc}", file=sys.stderr)
    # A data error needs a fix that a rerun will not bring, so it decides the exit code.
    if all(isinstance(exc, _NETWORK_ERRORS) for exc in all_errors.values()):
        return EXIT_NETWORK
    return EXIT_DATA


def cmd_build(ctx: RunContext, args) -> int:
    dataset = _load_split_dataset(ctx, args)
    spec = _parse_signature(ctx, args.sources)
    signature = spec.signature
    texts = _cached_texts(ctx, dataset, spec)
    options = {"sources": signature, "strict": bool(args.strict)}
    _write_manifest(ctx, args, options, dataset=dataset, signature=signature)
    for split in Split:
        result = build_instances(dataset.by_split(split), texts, signature, strict=args.strict)
        tab_path = emit_tabular(result.instances, _corpus_path(ctx, signature, split))
        chat_path = emit_chat_finetune(
            result.instances,
            dataset.scheme,
            ctx.run_dir / "finetune" / signature / f"{split.value}.jsonl",
            with_labels=split is not Split.TEST,
        )
        print(
            f"built {split.value}: {len(result.instances)} instances "
            f"({result.empty_count} empty) -> {tab_path} and {chat_path}"
        )
    return EXIT_OK


def cmd_train(ctx: RunContext, args) -> int:
    signature = _parse_signature(ctx, args.sources).signature
    scheme = load_scheme(ctx.config.task)
    corpus_path = _existing(
        args.corpus, _corpus_path(ctx, signature, Split.TRAIN), "training corpus", "build"
    )
    instances = load_tabular(corpus_path, scheme)
    options = {"sources": signature, "corpus": str(corpus_path)}
    _write_manifest(ctx, args, options, signature=signature)
    model = train(instances, scheme, ctx.config.training)
    model_path = save_model(model, ctx.run_dir / "model" / f"{signature}.model")
    print(f"trained on {len(instances)} instances -> {model_path}")
    return EXIT_OK


def cmd_predict(ctx: RunContext, args) -> int:
    signature, split = _signature_and_split(ctx, args)
    scheme = load_scheme(ctx.config.task)
    corpus_path = _existing(args.corpus, _corpus_path(ctx, signature, split), "corpus", "build")
    model_path = _existing(
        args.model, ctx.run_dir / "model" / f"{signature}.model", "model", "train"
    )
    instances = load_tabular(corpus_path, scheme)
    model = load_model(model_path, scheme)
    options = {"sources": signature, "split": split.value, "model": str(model_path)}
    _write_manifest(ctx, args, options, signature=signature)
    batch_size = ctx.config.training.eval_batch_size
    predictions = predict_instances(model, instances, batch_size=batch_size)
    out_path = write_predictions(predictions, _predictions_path(ctx, signature, split))
    print(f"predicted {len(predictions)} instances -> {out_path}")
    return EXIT_OK


def cmd_eval(ctx: RunContext, args) -> int:
    dataset, signature, split, pred_path, predictions, golds = _scored_predictions(ctx, args)
    options = {"sources": signature, "split": split.value, "predictions": str(pred_path)}
    _write_manifest(ctx, args, options, dataset=dataset, signature=signature)
    matrix = confusion(golds, [p.label for p in predictions], dataset.scheme)
    report = macro_report(
        matrix,
        config_fingerprint=fingerprint(snapshot(ctx.config)),
        run_id=ctx.run_id,
    )
    reports_dir = ctx.run_dir / "reports"
    stem = f"{signature}-{split.value}"
    report_path = write_report(report, reports_dir / f"{stem}-eval.json")
    write_class_scores_csv(report, reports_dir / f"{stem}-class_scores.csv")
    print(
        f"macro_p={report.macro_p:.4f} macro_r={report.macro_r:.4f} "
        f"macro_f1={report.macro_f1:.4f} -> {report_path}"
    )
    if args.compare:
        rows = per_category_table(load_report(args.compare, dataset.scheme), report)
        cmp_path = write_per_category_csv(rows, reports_dir / f"{stem}-compare.csv")
        print(f"per-category comparison -> {cmp_path}")
    return EXIT_OK


def cmd_sweep(ctx: RunContext, args) -> int:
    dataset, signature, split, _, predictions, golds = _scored_predictions(ctx, args)
    thresholds = ctx.config.thresholds
    if args.thresholds:
        thresholds = _parse_list(args.thresholds, float, "threshold")
    inclusive = bool(args.inclusive) or ctx.config.inclusive_thresholds
    options = {
        "sources": signature, "split": split.value,
        "thresholds": list(thresholds), "inclusive": inclusive,
    }
    _write_manifest(ctx, args, options, dataset=dataset, signature=signature)
    points = threshold_sweep(predictions, golds, dataset.scheme, thresholds, inclusive=inclusive)
    sweep_path = ctx.run_dir / "reports" / f"{signature}-{split.value}-sweep.csv"
    out_path = write_sweep_csv(points, sweep_path)
    for p in points:
        print(
            f"t={p.threshold:.2f} precision={p.precision:.4f} recall={p.recall:.4f} "
            f"coverage={p.coverage:.4f} n={p.n_labeled}"
        )
    print(f"sweep -> {out_path}")
    return EXIT_OK


def cmd_ablate(ctx: RunContext, args) -> int:
    dataset = _load_split_dataset(ctx, args)
    ks = _parse_list(args.ks, int, "k") if args.ks else DEFAULT_KS
    cached_depth = args.cached_depth if args.cached_depth else ctx.config.top_k
    _write_manifest(ctx, args, {"ks": list(ks), "cached_depth": cached_depth}, dataset=dataset)
    points = ablate_snippets(
        dataset, ctx.cache, ks, cached_depth=cached_depth, train_config=ctx.config.training
    )
    out_path = write_ablation_csv(points, ctx.run_dir / "reports" / "ablation.csv")
    for point in points:
        r = point.report
        print(f"k={point.k} macro_p={r.macro_p:.4f} macro_r={r.macro_r:.4f} macro_f1={r.macro_f1:.4f}")
    print(f"ablation -> {out_path}")
    return EXIT_OK


def cmd_baseline(ctx: RunContext, args) -> int:
    dataset = _load_split_dataset(ctx, args)
    split = _parse_split(args.split)
    client = _client(ctx, LlmClient, "llm_base_url")
    records = dataset.by_split(split)
    contexts = None
    if args.context_sources:
        spec = _parse_signature(ctx, args.context_sources)
        texts = _cached_texts(ctx, dataset, spec)
        missing = [r.entity_id for r in records if r.entity_id not in texts]
        if missing and args.strict:
            raise MissingText(f"no cached text for {len(missing)} entities (first: {missing[0]})")
        contexts = {
            r.entity_id: texts[r.entity_id].text
            for r in records
            if r.entity_id in texts and texts[r.entity_id].text
        }
    model_id = args.model or ctx.config.gpt_model
    options = {"split": split.value, "model": model_id, "context_sources": args.context_sources}
    _write_manifest(ctx, args, options, dataset=dataset)
    predictions = prompt_baseline(
        records, dataset.scheme, client, model_id=model_id, contexts=contexts
    )
    out_path = write_predictions(
        predictions, ctx.run_dir / "predictions" / f"baseline-{split.value}.jsonl"
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
        _sources("comma-separated source signatures"),
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
        ("--ks", {"help": "comma-separated snippet counts"}),
        ("--cached-depth", {"type": int, "default": None, "help": "depth the cache was filled at"}),
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
            training = replace(config.training, seed=args.seed)
            config = replace(config, split_seed=args.seed, training=training)
        run_id = args.run_id or _generate_run_id()
        run_dir = Path(args.runs_dir) / run_id
        cache_root = Path(config.cache_dir) if config.cache_dir else run_dir / "cache"
        ctx = RunContext(config=config, run_id=run_id, run_dir=run_dir, cache=TextCache(cache_root))
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
