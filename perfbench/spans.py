"""Span tracing for the benchmark's traced run.

``install`` wraps lndkit's public functions and the ``Polynomial``
operators from outside the package, including the names other lndkit
modules imported (``derivations.normal_form``, ``classify.groebner``,
...). Every call records a span: name, start, end, parent span and job
id. Spans live in compact arrays in memory and are written out once, at
the end of the run. Nothing here runs in the untraced runs.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, owner class or None, attribute, span name). A span name is
# "<layer>.<what>"; the layer is lndkit's module name.
WRAPPED = [
    ("poly", None, "parse_poly", "poly.parse"),
    ("poly", "Polynomial", "__mul__", "poly.mul"),
    ("poly", "Polynomial", "__rmul__", "poly.mul"),
    ("poly", "Polynomial", "__add__", "poly.add"),
    ("poly", "Polynomial", "__radd__", "poly.add"),
    ("poly", "Polynomial", "__sub__", "poly.add"),
    ("poly", "Polynomial", "__rsub__", "poly.add"),
    ("poly", "Polynomial", "__neg__", "poly.add"),
    ("poly", "Polynomial", "scale", "poly.add"),
    ("groebner", None, "groebner", "groebner.buchberger"),
    ("groebner", None, "reduce_poly", "groebner.reduce"),
    ("groebner", None, "normal_form", "groebner.normal_form"),
    ("groebner", None, "contains_one", "groebner.contains_one"),
    ("groebner", None, "jacobian_rank_at_point", "groebner.jacobian_rank"),
    ("derivations", "PresentedAlgebra", "__init__", "derivations.algebra_init"),
    ("derivations", None, "cylinder", "derivations.algebra_init"),
    ("derivations", "Derivation", "apply", "derivations.apply"),
    ("derivations", "Derivation", "is_well_defined", "derivations.well_defined"),
    ("derivations", "Derivation", "nilpotency_check", "derivations.nilpotency"),
    ("derivations", "Derivation", "exp_action", "derivations.exp"),
    ("derivations", "Derivation", "kernel_projection", "derivations.projection"),
    ("derivations", None, "lift", "derivations.lift"),
    ("grading", None, "decompose", "grading.decompose"),
    ("grading", None, "extreme_parts", "grading.decompose"),
    ("classify", None, "classify", "classify.classify"),
    ("classify", None, "test_type_a", "classify.type_a"),
    ("classify", "VarietyDossier", "create", "classify.create"),
    ("classify", None, "ji_lower_bound_check", "classify.ji_check"),
    ("classify", None, "conjectured_hdstar_member", "classify.hdstar"),
    ("classify", None, "combined_image_ideal", "classify.image_ideal"),
    ("classify", None, "fixed_locus", "classify.image_ideal"),
    ("toric", "Cone", "of", "toric.cone"),
    ("toric", None, "enumerate_roots", "toric.enumerate_roots"),
    ("toric", None, "detect_line_factor", "toric.line_factor"),
    ("toric", None, "classify_toric", "toric.classify"),
    ("trinomial", None, "build_relations", "trinomial.build_relations"),
    ("trinomial", None, "type1_lnd", "trinomial.type1_lnd"),
    ("trinomial", None, "classify_trinomial", "trinomial.classify"),
    ("trinomial", None, "is_rigid", "trinomial.is_rigid"),
    ("trinomial", None, "suspension_lnd", "trinomial.suspension"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "_load", "cli.dossier_load"),
]

LAYERS = ["poly", "groebner", "derivations", "grading", "classify", "toric",
          "trinomial", "cli"]
NO_PARENT = -1


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """In-memory span store plus the counters observed at span ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [NO_PARENT]
        self.job = 0
        self.errors = {layer: 0 for layer in LAYERS}
        self.counters = {
            "poly.terms_max": 0,
            "groebner.basis_len_max": 0,
            "groebner.buchberger_reductions": 0,
            "groebner.buchberger_zero_reductions": 0,
            "derivations.chain_len_max": 0,
            "toric.points_scanned": 0,
            "toric.roots_found": 0,
        }

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def parent_name(self) -> str | None:
        top = self.stack[-1]
        return None if top == NO_PARENT else self.names[self.name_id[top]]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.job_id.append(self.job)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span\tjob\tname\tparent\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.job_id[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Span duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and their durations add up to the time covered.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            out[p] -= end[i] - start[i]
    return out


def summarize(rec: Recorder) -> dict[str, dict]:
    """Per span name: calls (not counting re-entry from a span of the same
    name, as when ``-`` calls ``+``) and summed self time."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    out = {name: {"calls": 0, "self_s": 0.0} for name in rec.names}
    for i, nid in enumerate(rec.name_id):
        row = out[rec.names[nid]]
        p = rec.parent[i]
        if p == NO_PARENT or rec.name_id[p] != nid:
            row["calls"] += 1
        row["self_s"] += selfs[i]
    return out


# ---- observers: counters read off arguments and results at span end --------


def _observe(rec: Recorder, name: str, parent: str | None, args, result):
    c = rec.counters
    if name.startswith("poly.") and hasattr(result, "terms"):
        if len(result.terms) > c["poly.terms_max"]:
            c["poly.terms_max"] = len(result.terms)
    elif name == "groebner.buchberger":
        c["groebner.basis_len_max"] = max(
            c["groebner.basis_len_max"], len(result.basis)
        )
    elif name == "groebner.reduce" and parent == "groebner.buchberger":
        c["groebner.buchberger_reductions"] += 1
        if result.is_zero():
            c["groebner.buchberger_zero_reductions"] += 1
    elif name == "derivations.nilpotency":
        order = result.max_order or result.witness_order or 0
        c["derivations.chain_len_max"] = max(c["derivations.chain_len_max"], order)
    elif name == "toric.enumerate_roots":
        cone, box = args[0], args[1]
        c["toric.points_scanned"] += (2 * box + 1) ** cone.dim
        c["toric.roots_found"] += len(result)


def _wrap(rec: Recorder, fn, name: str):
    nid = rec.intern(name)
    layer = layer_of(name)

    def traced(*args, **kwargs):
        parent = rec.parent_name()
        # normal_form is division by a fixed basis: the reduce_poly call
        # it makes is its own work, not a Buchberger reduction
        if name == "groebner.reduce" and parent == "groebner.normal_form":
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            if parent is None or layer_of(parent) != layer:
                rec.errors[layer] += 1
            raise
        rec.close(idx)
        _observe(rec, name, parent, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder):
    """Wrap every entry of WRAPPED; returns a callable that undoes it."""
    import importlib

    mods = {m: importlib.import_module(f"lndkit.{m}") for m in LAYERS}
    lndkit_mods = [m for key, m in sys.modules.items()
                   if key == "lndkit" or key.startswith("lndkit.")]
    undo = []
    for mod_name, owner_name, attr, span in WRAPPED:
        mod = mods[mod_name]
        if owner_name is not None:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(rec, raw.__func__, span))
            else:
                new = _wrap(rec, raw, span)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
            continue
        original = getattr(mod, attr)
        wrapper = _wrap(rec, original, span)
        for m in lndkit_mods:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))

    def uninstall():
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)

    return uninstall


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, float]:
    """The per-layer metrics, per round of jobs."""
    rows = summarize(rec)

    def calls(name):
        return rows.get(name, {"calls": 0})["calls"] // rounds

    def self_s(name):
        return rows.get(name, {"self_s": 0.0})["self_s"] / rounds

    c = rec.counters
    reductions = c["groebner.buchberger_reductions"]
    scanned = c["toric.points_scanned"]
    out = {
        "poly.parse.calls": calls("poly.parse"),
        "poly.parse.self_s": self_s("poly.parse"),
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.add.calls": calls("poly.add"),
        "poly.add.self_s": self_s("poly.add"),
        "poly.terms_max": c["poly.terms_max"],
        "groebner.buchberger.calls": calls("groebner.buchberger"),
        "groebner.buchberger.self_s": self_s("groebner.buchberger"),
        "groebner.reduce.calls": calls("groebner.reduce"),
        "groebner.reduce.self_s": self_s("groebner.reduce"),
        "groebner.reduce.zero_frac": (
            c["groebner.buchberger_zero_reductions"] / reductions
            if reductions else 0.0
        ),
        "groebner.normal_form.calls": calls("groebner.normal_form"),
        "groebner.normal_form.self_s": self_s("groebner.normal_form"),
        "groebner.basis_len_max": c["groebner.basis_len_max"],
        "derivations.algebra_init.calls": calls("derivations.algebra_init"),
        "derivations.algebra_init.self_s": self_s("derivations.algebra_init"),
        "derivations.apply.calls": calls("derivations.apply"),
        "derivations.apply.self_s": self_s("derivations.apply"),
        "derivations.nilpotency.self_s": self_s("derivations.nilpotency"),
        "derivations.chain_len_max": c["derivations.chain_len_max"],
        "derivations.exp.self_s": self_s("derivations.exp"),
        "derivations.projection.self_s": self_s("derivations.projection"),
        "grading.decompose.self_s": self_s("grading.decompose"),
        "classify.classify.self_s": self_s("classify.classify"),
        "classify.type_a.self_s": self_s("classify.type_a"),
        "toric.enumerate_roots.calls": calls("toric.enumerate_roots"),
        "toric.enumerate_roots.self_s": self_s("toric.enumerate_roots"),
        "toric.points_scanned": scanned // rounds,
        "toric.root_hit_ratio": (
            c["toric.roots_found"] / scanned if scanned else 0.0
        ),
        "toric.line_factor.self_s": self_s("toric.line_factor"),
        "trinomial.build_relations.self_s": self_s("trinomial.build_relations"),
        "trinomial.type1_lnd.self_s": self_s("trinomial.type1_lnd"),
        "trinomial.classify.self_s": self_s("trinomial.classify"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.dossier_load.self_s": self_s("cli.dossier_load"),
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = rec.errors[layer] // rounds
    return out
