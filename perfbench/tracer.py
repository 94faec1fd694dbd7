"""In-memory tracing of the package's public functions, from outside it.

`install` replaces module functions and class methods with wrappers and
`Tracer.uninstall` puts the originals back.  Warm calls (one per stage
or per layer call) become spans with a parent id; the hot inner calls
(~10^6 `CharNGram.add`/`logprob` per run) only bump counters, so the trace
stays small and its overhead stays measurable.
"""

import resource
import time
from collections import defaultdict

perf = time.perf_counter


def rss_mb():
    """Peak resident set size of this process so far, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []          # dicts: id, parent, name, start, end, rss_start, rss_end
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []       # (owner, attr, original descriptor)
        self._distinct = defaultdict(set)
        self._objects = {}       # id -> object, held so that ids are not reused

    # ------------------------------------------------------------ spans

    def begin(self, name):
        span = {"id": len(self.spans), "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": perf(), "rss_start": rss_mb()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = perf()
        span["rss_end"] = rss_mb()
        self._stack.pop()
        return span["end"] - span["start"]

    def add_span(self, name, parent, start, end, rss_end):
        """A span derived afterwards from boundaries of recorded spans."""
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": start, "end": end, "rss_start": None, "rss_end": rss_end}
        self.spans.append(span)
        return span

    def find(self, name):
        return [s for s in self.spans if s["name"] == name]

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._patched.append((owner, attr, raw))

    def spanned(self, owner, attr, name, after=None):
        """Record a span and `<name>.calls`/`<name>.s` for each call;
        `after(args, result)` may add counters from the result."""
        counters = self.counters

        def make(fn):
            def wrapper(*args, **kwargs):
                span = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    counters[name + ".s"] += self.end(span)
                    counters[name + ".calls"] += 1
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def counted(self, owner, attr, after):
        """No span and no timing: `after(args, result)` updates counters."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def hot_form_method(self, owner, attr, name):
        """Aggregate `calls`, `s` and distinct (instance, form) keys of a
        method whose last positional argument is a target form."""
        counters = self.counters
        distinct = self._distinct[name]
        objects = self._objects

        def make(fn):
            def wrapper(obj, *args):
                objects.setdefault(id(obj), obj)
                distinct.add((id(obj), args[-1]))
                t = perf()
                result = fn(obj, *args)
                counters[name + ".s"] += perf() - t
                counters[name + ".calls"] += 1
                return result
            return wrapper
        self._patch(owner, attr, make)

    def self_timed_method(self, owner, attr, name, child):
        """`calls` and `self_s`: time minus the time the counter `child`
        (a nested hot method's `.s`) gained during the call."""
        counters = self.counters

        def make(fn):
            def wrapper(*args):
                c0 = counters[child]
                t = perf()
                result = fn(*args)
                dt = perf() - t
                counters[name + ".calls"] += 1
                counters[name + ".self_s"] += dt - (counters[child] - c0)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def distinct_ratio(self, name):
        calls = self.counters[name + ".calls"]
        return len(self._distinct[name]) / calls if calls else 0.0

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()
        self._objects.clear()


def install(tracer, pkg):
    """Wrap the public entry points of every layer below `cli`; the caller
    records one span per `cli.main` call itself, named after the stage."""
    corpus, strmodel = pkg.corpus, pkg.strmodel
    structure, complexity = pkg.structure, pkg.complexity
    stats, svgplot, platbaseline = pkg.stats, pkg.svgplot, pkg.platbaseline
    c = tracer.counters

    def count_pairs(args, result):
        c["corpus.pairs_built"] += len(result)

    def count_train(args, result):
        c["corpus.train_pairs"] = len(result.train_pairs)

    def count_model(args, result):
        c["strmodel.rule_tables"] = len(result.rule_tables)
        c["strmodel.rules"] = sum(len(t) for t in result.rule_tables.values())

    def count_slots(args, result):
        c["structure.slots"] = result.n

    def count_perms(args, result):
        c["stats.perms"] += result.n_perm

    def count_joint(args, result):
        c["strmodel.joint_logprob.calls"] += 1

    tracer.spanned(corpus, "parse_unimorph", "corpus.parse_unimorph")
    tracer.spanned(corpus, "make_split", "corpus.make_split", after=count_train)
    tracer.counted(corpus, "expand_paradigm_pairs", count_pairs)
    tracer.spanned(corpus, "split_to_json", "corpus.split_to_json")
    tracer.spanned(corpus, "split_from_json", "corpus.split_from_json")
    tracer.spanned(strmodel, "train", "strmodel.train", after=count_model)
    tracer.spanned(strmodel.ConditionalParadigmModel, "save",
                   "strmodel.ConditionalParadigmModel.save")
    tracer.spanned(strmodel.ConditionalParadigmModel, "load",
                   "strmodel.ConditionalParadigmModel.load")
    tracer.hot_form_method(strmodel.CharNGram, "add", "strmodel.CharNGram.add")
    tracer.hot_form_method(strmodel.CharNGram, "logprob", "strmodel.CharNGram.logprob")
    tracer.self_timed_method(strmodel.ConditionalParadigmModel, "logprob",
                             "strmodel.ConditionalParadigmModel.logprob",
                             child="strmodel.CharNGram.logprob.s")
    tracer.counted(strmodel, "joint_logprob", count_joint)
    tracer.spanned(structure, "compute_weights", "structure.compute_weights",
                   after=count_slots)
    tracer.spanned(structure, "max_arborescence", "structure.max_arborescence")
    tracer.spanned(complexity, "i_complexity", "complexity.i_complexity")
    tracer.spanned(stats, "perm_test", "stats.perm_test", after=count_perms)
    tracer.spanned(svgplot, "scatter_with_pareto", "svgplot.scatter_with_pareto")
    tracer.spanned(platbaseline, "avg_cond_entropy", "platbaseline.avg_cond_entropy")
