"""Span tracing of grlstab's layers from outside the package.

`Tracer.install` wraps the public functions and public methods of every
grlstab module and patches each wrapper in wherever callers look the name
up: module globals (which covers names imported with `from ... import`,
such as `harness.train` or `cli.write_csv`), module-level dicts of
callables (`cli.RUNNERS`, `graphs.GENERATORS`, `gnn._SOLVERS`) and class
attributes. `uninstall` puts every original back.

Each wrapped call appends one span [name, layer, start, end, parent, note]
to an in-memory list; `layer_metrics` turns one pass's spans into the
per-layer metrics. A layer's self time is the summed duration of its spans
minus the part covered by their child spans, so the self times of all
layers add up to the duration of the root spans (`cli.main`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from time import perf_counter

MODULES = ("sampling", "objectives", "sgd", "harness", "gnn", "bounds", "srm",
           "reporting", "cli", "config", "graphs")

# Config parsing and graph builders cost microseconds; they count as cli.
LAYER = {m: m for m in MODULES} | {"config": "cli", "graphs": "cli"}
LAYERS = ("sampling", "objectives", "sgd", "harness", "gnn", "gnn.fit", "bounds",
          "srm", "reporting", "cli")

# Helpers called once per SGD step, per Glauber site, per written value or
# per receptive-field member stay unwrapped: a span there would cost more
# than the work. Their time is charged to the wrapped function calling them.
UNWRAPPED = {
    "sgd.project", "sgd.sgd_step", "sgd.case_label", "sgd.first_hit_time",
    "sgd.SgdConfig.alpha_at",
    "objectives.BoundObjective.loss", "objectives.BoundObjective.gradient",
    "objectives.FieldObjective.field_feature",
    "objectives.FieldObjective.loss_uy", "objectives.FieldObjective.grad_uy",
    "objectives.FieldObjective.losses_uy", "objectives.FieldObjective.hessian_uy",
    "objectives.FieldObjective.predict",
    "objectives.QuadraticFieldObjective.loss_uy", "objectives.QuadraticFieldObjective.grad_uy",
    "objectives.QuadraticFieldObjective.losses_uy",
    "objectives.QuadraticFieldObjective.hessian_uy",
    "objectives.RippleFieldObjective.loss_uy", "objectives.RippleFieldObjective.grad_uy",
    "objectives.RippleFieldObjective.losses_uy", "objectives.RippleFieldObjective.hessian_uy",
    "reporting.fmt",
    "srm.DegreeClassFamily.slot_members", "srm.DegreeClassFamily.n_slots",
    "config.ExperimentConfig.has", "config.ExperimentConfig.get_str",
}

ENUMERATION = {"sampling.dobrushin_exact", "sampling.gibbs_probabilities"}
SOLVERS = {"gnn.fit_projected_closed_form", "gnn.fit_exact_rowwise"}
DRAWS = {"sampling.IidSampler.sample", "sampling.IsingSampler.sample"}
SGD_LOOPS = {"sgd.train": 1, "sgd.train_pooled": 1, "sgd.coupled_train": 2}
LEARNER_TRAININGS = {"train", "train_pooled"}


def _note_for(name: str):
    """Function of a call's bound arguments that records its work, or None."""
    if name == "sampling.glauber_spins":
        return lambda a: a["sweeps"] * a["spec"].n * a["n_chains"]
    if name == "sampling.IsingSampler.replace":
        return lambda a: len(set(a["indices"])) if a["mode"] == "fresh-conditional" else 0
    if name in DRAWS:
        return lambda a: a["seed"]
    if name == "objectives.FieldObjective.bind":
        return lambda a: a["z"].seed
    if name in SGD_LOOPS:
        return lambda a: a["cfg"].steps
    if name in ("reporting.write_csv", "reporting.write_json"):
        return lambda a: os.fspath(a["path"])
    return None


class Tracer:
    """Records one span per call of a wrapped grlstab function."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (container, key, original), undone in reverse

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        layer = "gnn.fit" if name in SOLVERS else LAYER[name.split(".")[0]]
        note = _note_for(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = note(bound.arguments)
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return wrapper

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, container.__dict__[key]))
            setattr(container, key, value)

    def install(self):
        modules = {m: importlib.import_module(f"grlstab.{m}") for m in MODULES}
        wrappers = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name not in UNWRAPPED:
                        wrappers[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{attr}.{meth}"
                        if (meth.startswith("_") or not inspect.isfunction(fn)
                                or name in UNWRAPPED):
                            continue
                        self._set(obj, meth, self._wrap(name, fn))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._set(mod.__dict__, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)])

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()


def layer_metrics(spans, time_scale: float = 1.0):
    """Per-layer work counts and times of one pass, and the self-time check.

    Times are multiplied by time_scale. Ratios are 0 where their base is 0,
    that is, on a workload that does not use the layer. The check is
    (sum of the layers' self times, sum of the root spans), unscaled.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    entries = dict.fromkeys(LAYERS, 0)
    root_of = []
    in_harness = []  # span lies inside a harness span
    child_s = [0.0] * len(spans)
    for idx, (name, layer, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += end - start
            root_of.append(root_of[parent])
            in_harness.append(in_harness[parent] or spans[parent][1] == "harness")
        else:
            root_of.append(idx)
            in_harness.append(False)
        if parent < 0 or spans[parent][1] != layer:
            entries[layer] += 1

    site_updates = trainings = steps = fits = srm_fits = learner_trainings = 0
    enum_s = fit_s = harness_s = root_s = 0.0
    draws, binds = [], []
    written = set()
    for idx, (name, layer, start, end, parent, note) in enumerate(spans):
        self_s[layer] += end - start - child_s[idx]
        if parent < 0:
            root_s += end - start
        if name in ("sampling.glauber_spins", "sampling.IsingSampler.replace"):
            site_updates += note
        elif name in DRAWS:
            draws.append((root_of[idx], note))
        elif name == "objectives.FieldObjective.bind":
            binds.append((root_of[idx], note))
        elif name in SGD_LOOPS:
            trainings += SGD_LOOPS[name]
            steps += SGD_LOOPS[name] * note
        elif name in ENUMERATION and (parent < 0 or spans[parent][0] not in ENUMERATION):
            enum_s += end - start
        elif name in SOLVERS:
            fits += 1
            fit_s += end - start
        elif name == "srm.ball_constrained_least_squares":
            srm_fits += 1
        elif name in ("reporting.write_csv", "reporting.write_json"):
            written.add(note)
        if layer == "harness" and not in_harness[idx]:
            harness_s += end - start
        if (in_harness[idx] and name.count(".") == 2 and spans[parent][1] == "harness"
                and name.rsplit(".", 1)[1] in LEARNER_TRAININGS):
            learner_trainings += 1

    def ratio(num, den):
        return num / den if den else 0.0

    check = (sum(self_s.values()), root_s)
    self_s = {k: v * time_scale for k, v in self_s.items()}
    enum_s, fit_s, harness_s, root_s = (v * time_scale for v in (enum_s, fit_s, harness_s, root_s))
    glauber_s = self_s["sampling"] - enum_s
    return {
        "sampling.calls": (entries["sampling"], "count"),
        "sampling.self_s": (self_s["sampling"], "s"),
        "sampling.site_updates": (site_updates, "count"),
        "sampling.ns_per_site_update": (ratio(glauber_s * 1e9, site_updates), "ns"),
        "sampling.enum_s": (enum_s, "s"),
        "sampling.distinct_draw_ratio": (ratio(len(set(draws)), len(draws)), "ratio"),
        "objectives.bind_calls": (len(binds), "count"),
        "objectives.self_s": (self_s["objectives"], "s"),
        "objectives.binds_per_distinct_set": (ratio(len(binds), len(set(binds))), "ratio"),
        "sgd.trainings": (trainings, "count"),
        "sgd.steps": (steps, "count"),
        "sgd.self_s": (self_s["sgd"], "s"),
        "sgd.us_per_step": (ratio(self_s["sgd"] * 1e6, steps), "us"),
        "harness.self_s": (self_s["harness"], "s"),
        "harness.trainings_per_s": (ratio(learner_trainings, harness_s), "1/s"),
        "gnn.experiments": (sum(1 for s in spans if s[0] == "gnn.gnn_stability_experiment"),
                            "count"),
        "gnn.fits": (fits, "count"),
        "gnn.fit_s": (fit_s, "s"),
        "gnn.self_s": (self_s["gnn"], "s"),
        "srm.fits": (srm_fits, "count"),
        "srm.self_s": (self_s["srm"], "s"),
        "bounds.calls": (entries["bounds"], "count"),
        "bounds.self_s": (self_s["bounds"], "s"),
        "reporting.bytes_written": (sum(os.path.getsize(p) for p in written), "B"),
        "reporting.self_s": (self_s["reporting"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.root_s": (root_s, "s"),
    }, check
