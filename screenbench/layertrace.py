"""Outside-in layer trace for scaffscreen.

``install()`` replaces public functions of the program's modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. ``from x import f`` copies the binding, so a
function is rebound in every ``scaffscreen`` module that holds it. Spans stay
in memory in flat arrays; ``Tracer.save`` writes them out once the run is
over and ``Tracer.metrics`` turns them into the per-layer figures.

A span's self time is its duration minus the durations of its direct
children, which is the time not covered by any child span because calls
nest strictly in a single thread.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("pipeline.ingest", "scaffscreen.pipeline.ingest", "ingest"),
    ("pipeline.splits", "scaffscreen.pipeline.splits", "make_splits"),
    ("chem.parse_smiles", "scaffscreen.chem.smiles", "parse_smiles"),
    ("chem.to_smiles", "scaffscreen.chem.smiles", "to_smiles"),
    ("chem.murcko_scaffold", "scaffscreen.chem.scaffold", "murcko_scaffold"),
    ("chem.check_valence", "scaffscreen.chem.valence", "check_valence"),
    ("fingerprints.ecfp", "scaffscreen.fingerprints", "ecfp"),
    ("fingerprints.tanimoto", "scaffscreen.fingerprints", "tanimoto"),
    ("fingerprints.fingerprint_matrix", "scaffscreen.fingerprints", "fingerprint_matrix"),
    ("sampling.cluster_scaffolds", "scaffscreen.sampling", "cluster_scaffolds"),
    ("sampling.silhouette", "scaffscreen.sampling", "silhouette"),
    ("sampling.sample_library", "scaffscreen.sampling", "sample_library"),
    (
        "diffusion.generate_scaffold_extensions",
        "scaffscreen.diffusion.sampler",
        "generate_scaffold_extensions",
    ),
    ("diffusion.extend_scaffold", "scaffscreen.diffusion.sampler", "extend_scaffold"),
    (
        "diffusion.posterior_distributions",
        "scaffscreen.diffusion.sampler",
        "posterior_distributions",
    ),
    ("diffusion.mixing_matrix", "scaffscreen.diffusion.schedule", "mixing_matrix"),
    ("diffusion.denoise", "scaffscreen.diffusion.denoisers", "MarginalDenoiser.denoise"),
    ("diffusion.denoise", "scaffscreen.diffusion.denoisers", "OneHotEchoDenoiser.denoise"),
    ("diffusion.denoise", "scaffscreen.diffusion.denoisers", "ExternalDenoiser.denoise"),
    ("selftrain.self_train", "scaffscreen.selftrain", "self_train"),
    ("selftrain.featurize", "scaffscreen.selftrain", "FingerprintClassifier.featurize"),
    ("selftrain.loss_and_grad", "scaffscreen.selftrain", "loss_and_grad"),
    ("selftrain.predict", "scaffscreen.selftrain", "predict"),
    ("metrics.ranked_list", "scaffscreen.metrics", "RankedList.from_records"),
    ("metrics.sd_k", "scaffscreen.metrics", "sd_k"),
    ("metrics.early_recognition", "scaffscreen.metrics", "log_auc"),
    ("metrics.early_recognition", "scaffscreen.metrics", "bedroc"),
    ("metrics.early_recognition", "scaffscreen.metrics", "ef_k"),
    ("metrics.early_recognition", "scaffscreen.metrics", "dcg_k"),
    ("rerank.candidate_fingerprint", "scaffscreen.rerank", "candidate_fingerprint"),
    ("rerank.mmr_rerank", "scaffscreen.rerank", "mmr_rerank"),
    ("rerank.lambda_sweep", "scaffscreen.rerank", "lambda_sweep"),
    ("pipeline.runner.run_experiment", "scaffscreen.pipeline.runner", "run_experiment"),
    ("pipeline.runner.rebuild_report", "scaffscreen.pipeline.runner", "rebuild_report"),
)

# Per-layer metrics: (name, unit). Self times and call counts come from the
# spans; the rest from the counters the wrappers keep.
SELF_TIMES = (
    "pipeline.ingest", "pipeline.splits", "chem.parse_smiles", "chem.murcko_scaffold",
    "chem.check_valence", "chem.to_smiles", "fingerprints.ecfp", "fingerprints.tanimoto",
    "fingerprints.fingerprint_matrix", "sampling.cluster_scaffolds", "sampling.silhouette",
    "sampling.sample_library", "diffusion.generate_scaffold_extensions", "diffusion.denoise",
    "diffusion.posterior_distributions", "selftrain.self_train", "selftrain.featurize",
    "selftrain.loss_and_grad", "selftrain.predict", "metrics.ranked_list", "metrics.sd_k",
    "metrics.early_recognition", "rerank.candidate_fingerprint", "rerank.mmr_rerank",
    "pipeline.runner.run_experiment", "pipeline.runner.rebuild_report",
)
CALL_COUNTS = (
    "chem.parse_smiles", "chem.murcko_scaffold", "chem.check_valence", "fingerprints.ecfp",
    "fingerprints.tanimoto", "sampling.silhouette", "metrics.ranked_list", "rerank.candidate_fingerprint", "rerank.mmr_rerank",
)


class Tracer:
    """In-memory span recorder plus the counters the wrappers update."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.fingerprinted: set = set()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def wrap(self, name: str, fn, count=None):
        name_id = self.intern(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        name_ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
        n_names = len(self.names)
        self_s = np.bincount(name_ids, weights=duration - covered, minlength=n_names)
        calls = np.bincount(name_ids, minlength=n_names)

        def total(name: str, values) -> float:
            return float(values[self._ids[name]]) if name in self._ids else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (total(name, self_s), "s")
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = (total(name, calls), "count")
        c = self.counters
        cells = max(total("selftrain.self_train", calls), 1.0)
        out.update(
            {
                "pipeline.ingest.records": (c.get("ingest.records", 0), "count"),
                "fingerprints.ecfp.calls_per_molecule": (
                    total("fingerprints.ecfp", calls) / max(len(self.fingerprinted), 1),
                    "ratio",
                ),
                "sampling.points": (c.get("sampling.points", 0), "count"),
                "sampling.silhouette.peak_alloc_mb": (
                    c.get("silhouette.peak_bytes", 0) / 2**20,
                    "MB",
                ),
                "diffusion.chains": (total("diffusion.extend_scaffold", calls), "count"),
                "diffusion.reverse_steps": (total("diffusion.denoise", calls), "count"),
                "diffusion.node_pairs": (c.get("diffusion.node_pairs", 0), "count"),
                "diffusion.mixing_matrix.calls": (
                    total("diffusion.mixing_matrix", calls),
                    "count",
                ),
                "diffusion.valid_fraction": (
                    c.get("diffusion.valid", 0) / max(c.get("diffusion.generated", 0), 1),
                    "ratio",
                ),
                "selftrain.featurize.rows": (c.get("featurize.rows", 0), "count"),
                "selftrain.sgd_rows": (c.get("sgd.rows", 0), "count"),
                "selftrain.predict.rows": (c.get("predict.rows", 0), "count"),
                "selftrain.pseudo_labeled": (c.get("pseudo.rows", 0), "count"),
                "rerank.candidates": (c.get("rerank.candidates", 0), "count"),
                "rerank.cells_reranked": (
                    total("rerank.lambda_sweep", calls) / cells,
                    "ratio",
                ),
            }
        )
        return out


def _count_ingest(tracer, args, kwargs, result):
    tracer.add("ingest.records", result.size)


def _count_points(tracer, args, kwargs, result):
    fps = args[0] if args else kwargs["fps"]
    tracer.add("sampling.points", len(fps))


def _count_generated(tracer, args, kwargs, result):
    _, report = result
    tracer.add("diffusion.generated", report.total)
    tracer.add("diffusion.valid", report.n_valid)


def _count_pairs(tracer, args, kwargs, result):
    n = len(args[2] if len(args) > 2 else kwargs["nodes"])
    tracer.add("diffusion.node_pairs", n * (n - 1) // 2)


def _count_featurize(tracer, args, kwargs, result):
    tracer.add("featurize.rows", len(result))


def _count_sgd(tracer, args, kwargs, result):
    labels = args[3] if len(args) > 3 else kwargs["labels"]
    tracer.add("sgd.rows", len(labels))


def _count_predict(tracer, args, kwargs, result):
    tracer.add("predict.rows", len(result))


def _count_pseudo(tracer, args, kwargs, result):
    _, history = result
    tracer.add("pseudo.rows", sum(record.n_pseudo for record in history))


def _count_fingerprinted(tracer, args, kwargs, result):
    tracer.fingerprinted.add(args[0] if args else kwargs["mol"])


def _count_candidates(tracer, args, kwargs, result):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    tracer.add("rerank.candidates", candidates.size)


COUNTERS = {
    "pipeline.ingest": _count_ingest,
    "sampling.cluster_scaffolds": _count_points,
    "diffusion.generate_scaffold_extensions": _count_generated,
    "diffusion.denoise": _count_pairs,
    "selftrain.featurize": _count_featurize,
    "selftrain.loss_and_grad": _count_sgd,
    "selftrain.predict": _count_predict,
    "selftrain.self_train": _count_pseudo,
    "fingerprints.ecfp": _count_fingerprinted,
    "rerank.lambda_sweep": _count_candidates,
}


def _measure_peak_alloc(tracer: Tracer, fn):
    """Run ``fn`` under tracemalloc and keep the largest peak seen."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.counters["silhouette.peak_bytes"] = max(
                tracer.counters.get("silhouette.peak_bytes", 0), peak
            )

    return measured


def install() -> Tracer:
    """Import the program's modules and wrap every traced binding."""
    import importlib

    # Load every module first so each copied binding exists when it is patched.
    importlib.import_module("scaffscreen.pipeline.cli")
    tracer = Tracer()
    for name, module_name, attribute in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        counter = COUNTERS.get(name)
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(owner, method, classmethod(tracer.wrap(name, raw.__func__, counter)))
            else:
                setattr(owner, method, tracer.wrap(name, raw, counter))
            continue
        original = getattr(module, attribute)
        if name == "sampling.silhouette":
            replacement = tracer.wrap(name, _measure_peak_alloc(tracer, original), counter)
        else:
            replacement = tracer.wrap(name, original, counter)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("scaffscreen"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)
    return tracer
