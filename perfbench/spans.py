"""In-memory spans around the package's layer boundaries, installed at runtime.

The package is never edited: :func:`install` replaces each traced name where
its caller looks it up (a module global, a name imported into another module,
or a class attribute) with a wrapper that records a span and counts, and
:meth:`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent span, op id).  Spans live in flat arrays
while the run lasts and are written out once, when it ends.
"""

from __future__ import annotations

import inspect
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from commtower import cli, freeprod, intmat, localization, tower, words


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.last: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs,
        result)`` may add counts once the call returns."""
        nid = self.ids.setdefault(name, len(self.ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, start, end = self.stack, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def counter(self, fn, after):
        """Wrap ``fn`` to add counts only, for calls too frequent for spans."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, wrapped) -> None:
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[self.op_id][key] += amount

    def totals(self, ops: set[int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for op in ops:
            for key, value in self.counts[op].items():
                out[key] += value
        return out

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Total self time per span name over spans of the given ops."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            if self.op[i] in ops:
                out[self.names[self.name[i]]] += (
                    self.end[i] - self.start[i] - child[i])
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Header line of JSON, then the five span arrays back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, spans=len(self.start),
                      arrays=["name:i", "parent:i", "op:i", "start:d", "end:d"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict[str, array]]:
    """Inverse of :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for spec in header["arrays"]:
            key, code = spec.split(":")
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[key] = arr
    return header, arrays


def install(tr: Tracer) -> None:
    """Patch every traced boundary.  Names the CLI or tower imported from
    another module are patched in the importing module as well."""
    add = tr.add

    def at(owners, attr, wrapped):
        for owner in owners:
            tr.patch(owner, attr, wrapped)

    # words
    W = words.Word
    tr.patch(W, "__mul__", tr.span("words.mul", W.__mul__, lambda a, k, r: (
        add("words.mul.calls"),
        add("words.mul.letters", len(a[0].letters) + len(a[1].letters)))))
    tr.patch(W, "__pow__", tr.span("words.pow", W.__pow__,
                                   lambda a, k, r: add("words.pow.calls")))
    tr.patch(W, "__post_init__", tr.counter(W.__post_init__, lambda a, k, r: add(
        "words.word.letters_validated", len(a[0].letters))))
    tr.patch(freeprod, "coset_rep", tr.span(
        "words.coset_rep", words.coset_rep,
        lambda a, k, r: add("words.coset_rep.calls")))
    G = freeprod.GContext
    for rep in ("rep1", "rep2"):
        tr.patch(G, rep, tr.counter(getattr(G, rep),
                                    lambda a, k, r: add("words.coset_rep.lookups")))

    # intmat
    def as_elementary_done(a, k, r):
        if r is None:
            tr.last["as_elementary.none"] += 1

    def evaluate_word(assignment, w):
        tr.last["as_elementary.none"] = 0
        result = raw_evaluate(assignment, w)
        add("intmat.evaluate_word.calls")
        add("intmat.evaluate_word.letters", len(w.letters))
        if not tr.last["as_elementary.none"]:
            add("intmat.evaluate_word.elementary")
        return result

    raw_evaluate = intmat.evaluate_word
    tr.patch(tower, "evaluate_word",
             tr.span("intmat.evaluate_word", evaluate_word))
    at((intmat, tower), "matmul", tr.span(
        "intmat.matmul", intmat.matmul, lambda a, k, r: (
            add("intmat.matmul.calls"), add("intmat.matmul.mults", a[0].dim ** 3))))
    tr.patch(intmat, "as_elementary", tr.span(
        "intmat.as_elementary", intmat.as_elementary, as_elementary_done))

    # tower and localization
    at((tower, localization), "seed_word",
       tr.span("tower.seed_word", tower.seed_word))
    for fn in ("central_presentation", "verify_representation",
               "perfectness_witness", "split_context"):
        tr.patch(tower, fn, tr.span(f"tower.{fn}", getattr(tower, fn)))
    tr.patch(localization, "lp_normalize", tr.span(
        "localization.lp_normalize", localization.lp_normalize,
        lambda a, k, r: add("localization.lp_normalize.calls")))
    tr.patch(localization, "lp_multiply", tr.span(
        "localization.lp_multiply", localization.lp_multiply))

    # freeprod: decisions
    def sp_reduce(rank1, rank2, raw):
        raw = list(raw)
        add("freeprod.sp_reduce.calls")
        add("freeprod.sp_reduce.syllables_in", len(raw))
        return raw_sp_reduce(rank1, rank2, raw)

    raw_sp_reduce = freeprod.sp_reduce
    tr.patch(freeprod, "sp_reduce", tr.span("freeprod.sp_reduce", sp_reduce))
    at((freeprod, cli), "cartesian_basis_express", tr.span(
        "freeprod.cartesian_basis_express", freeprod.cartesian_basis_express,
        lambda a, k, r: add("freeprod.cartesian_basis_express.factors", len(r))))
    at((freeprod, cli), "rewrite_commutator", tr.span(
        "freeprod.rewrite_commutator", freeprod.rewrite_commutator,
        lambda a, k, r: add("freeprod.rewrite_commutator.calls")))
    tr.patch(freeprod, "k_image", tr.span(
        "freeprod.k_image", freeprod.k_image,
        lambda a, k, r: add("freeprod.k_image.symbols", len(r.symbols))))
    at((freeprod, cli), "eq_in_G", tr.span(
        "freeprod.eq_in_G", freeprod.eq_in_G,
        lambda a, k, r: add("freeprod.eq_in_G.calls")))

    # freeprod: the scan
    def enumerate_syllable_words(*args, **kwargs):
        out = list(raw_enumerate(*args, **kwargs))
        tr.last["enumerated"] = len(out)
        return iter(out)

    def scan_done(a, k, r):
        visited = tr.last["enumerated"] ** 2
        add("freeprod.commutation_scan.pairs_visited", visited)
        add("freeprod.commutation_scan.pairs_tested", r.pairs_tested - r.budget)

    raw_enumerate = freeprod.enumerate_syllable_words
    tr.patch(freeprod, "enumerate_syllable_words", tr.span(
        "freeprod.enumerate_syllable_words", enumerate_syllable_words))
    tr.patch(freeprod, "commutation_scan", tr.span(
        "freeprod.commutation_scan", freeprod.commutation_scan, scan_done))

    # freeprod: the finite-quotient oracle
    O = freeprod.FiniteQuotientOracle
    raw_build = vars(O)["build"].__func__
    max_resamples = inspect.signature(raw_build).parameters["max_resamples"].default

    def build_done(a, k, r):
        add("freeprod.oracle.build.calls")
        add("freeprod.oracle.resamples", r.resamples)
        if r.resamples > k.get("max_resamples", max_resamples):
            add("freeprod.oracle.fallbacks")

    tr.patch(O, "build", classmethod(
        tr.span("freeprod.oracle.build", raw_build, build_done)))
    tr.patch(O, "apply", tr.span("freeprod.oracle.apply", O.apply,
                                 lambda a, k, r: add("freeprod.oracle.apply.calls")))
    tr.patch(freeprod, "random_kernel_word", tr.span(
        "freeprod.random_kernel_word", freeprod.random_kernel_word))

    # cli: main minus the command handler is parsing and rendering
    tr.patch(cli, "main", tr.span("cli.main", cli.main))
    handlers = dict(cli._HANDLERS)
    tr.patch(cli, "_HANDLERS", {key: tr.span("cli.handler", fn)
                                for key, fn in handlers.items()})


def layer_metrics(tr: Tracer, ops: set[int]) -> dict[str, float]:
    """The per-layer metrics over the spans and counts of ``ops``."""
    c = tr.totals(ops)
    st = tr.self_times(ops)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {key: c[key] for key in (
        "words.mul.calls", "words.mul.letters", "words.pow.calls",
        "words.coset_rep.calls", "words.word.letters_validated",
        "intmat.evaluate_word.calls", "intmat.evaluate_word.letters",
        "intmat.matmul.calls", "intmat.matmul.mults",
        "localization.lp_normalize.calls",
        "freeprod.sp_reduce.calls", "freeprod.sp_reduce.syllables_in",
        "freeprod.cartesian_basis_express.factors",
        "freeprod.rewrite_commutator.calls", "freeprod.k_image.symbols",
        "freeprod.eq_in_G.calls", "freeprod.commutation_scan.pairs_visited",
        "freeprod.oracle.build.calls", "freeprod.oracle.resamples",
        "freeprod.oracle.fallbacks", "freeprod.oracle.apply.calls")}
    out["words.coset_rep.cache_hit_ratio"] = (
        1 - ratio(c["words.coset_rep.calls"], c["words.coset_rep.lookups"])
        if c["words.coset_rep.lookups"] else 0.0)
    out["intmat.evaluate_word.elementary_ratio"] = ratio(
        c["intmat.evaluate_word.elementary"], c["intmat.evaluate_word.calls"])
    out["freeprod.commutation_scan.filter_yield"] = ratio(
        c["freeprod.commutation_scan.pairs_tested"],
        c["freeprod.commutation_scan.pairs_visited"])
    for name in ("words.mul", "words.pow", "words.coset_rep",
                 "intmat.evaluate_word", "intmat.matmul", "intmat.as_elementary",
                 "tower.seed_word", "tower.central_presentation",
                 "tower.verify_representation", "tower.perfectness_witness",
                 "tower.split_context", "localization.lp_normalize",
                 "localization.lp_multiply", "freeprod.sp_reduce",
                 "freeprod.cartesian_basis_express",
                 "freeprod.rewrite_commutator", "freeprod.eq_in_G",
                 "freeprod.enumerate_syllable_words",
                 "freeprod.commutation_scan", "freeprod.oracle.build",
                 "freeprod.oracle.apply", "freeprod.random_kernel_word",
                 "cli.main"):
        out[f"{name}.self_s"] = st.get(name, 0.0)
    return out
