"""Tracing and per-layer metrics for the rarepath benchmark.

Everything is measured from outside the package.  While a traced run is
active the :class:`Tracer` swaps the public functions the CLI calls for
timing wrappers, and swaps ``RngStream.generator`` for one that hands the
engines a recording proxy, so the shape of every Philox draw is known.
After the run, :meth:`Tracer.replay` repeats each recorded draw sequence
on a fresh generator and times it: that is the RNG layer's cost.  Spans
stay in memory and are written out once, when the run ends.

The replay mirrors the draw pattern of the engines as they are today
(``PATTERNS``).  A change to how many draws an engine makes per
lane-step needs the patterns redefined; until then the replayed
lane-step count disagrees with the engine's own count and the ``rng.*``
metrics are reported as invalid rather than as numbers.
"""

import dataclasses
import inspect
import json
import threading
import time

import numpy as np

# Draws per iteration of each engine, in order: (method, columns), where
# columns is None for a 1-d draw of one value per alive lane.
PATTERNS = {
    "is": (("normal", 3), ("random", None), ("random", None)),
    "rej": (("normal", None), ("random", None)),
    "inverse-bessel": (("normal", 3), ("random", None)),
    "bounded-drift": (("normal", 1),),
}

FAMILIES = ("inverse-bessel", "bounded-drift")


class RecordingGenerator:
    """Forwards draws to a numpy Generator and records their shapes."""

    __slots__ = ("_gen", "_calls")

    def __init__(self, gen, calls):
        self._gen = gen
        self._calls = calls

    def standard_normal(self, size=None):
        self._calls.append(("normal", size))
        return self._gen.standard_normal(size)

    def random(self, size=None):
        self._calls.append(("random", size))
        return self._gen.random(size)

    def __getattr__(self, name):
        # any other draw kind is outside the replayed patterns
        self._calls.append((name, None))
        return getattr(self._gen, name)


def lane_profile(calls, pattern):
    """Alive-lane count of each iteration, or None if ``calls`` does not
    follow ``pattern``."""
    if not calls or len(calls) % len(pattern):
        return None
    sizes = []
    for i in range(0, len(calls), len(pattern)):
        alive = None
        for (kind, size), (want, cols) in zip(calls[i:i + len(pattern)], pattern):
            if kind != want or size is None:
                return None
            shape = (int(size),) if np.ndim(size) == 0 else tuple(int(s) for s in size)
            if shape[1:] != (() if cols is None else (cols,)):
                return None
            if alive is not None and shape[0] != alive:
                return None
            alive = shape[0]
        sizes.append(alive)
    return sizes


def two_worker_makespan(costs):
    """Finish time of ``costs`` handed in order to two workers, each taking
    the next batch when it is free (how ``ThreadPoolExecutor.map`` runs)."""
    busy = [0, 0]
    for c in costs:
        busy[busy.index(min(busy))] += c
    return max(busy)


class Tracer:
    """In-memory spans around public calls into rarepath, plus a record of
    every random generator the engines create."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.gens = []
        self.job = None
        self._stack = []  # open spans; wrapped calls all happen on one thread
        self._owner = threading.get_ident()
        self._undo = []
        self._generator = None

    # -- spans ------------------------------------------------------------

    def begin(self, name, **attrs):
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._stack[-1]["id"] if self._stack else None,
                "job": self.job, **attrs}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    # -- instrumentation --------------------------------------------------

    def _wrap(self, module, attr, name, after=None, before=None):
        orig = getattr(module, attr)
        sig = inspect.signature(orig)
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                return orig(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            span = tracer.begin(name)
            try:
                if before is not None:
                    before(span, bound)
                out = orig(*bound.args, **bound.kwargs)
                if after is not None:
                    after(span, bound.arguments, out)
                return out
            finally:
                tracer.end(span)

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def install(self):
        from rarepath import cli, diagnostics, passage
        from rarepath.rng import RngStream

        def samples(span, a, out):
            q = a["query"]
            span.update(level=q.level, reported_lane_steps=out.total_time_units / q.step)

        def oracle(span, a, out):
            q = a["query"]
            span.update(level=q.level, accepted=out.n_samples, attempts=q.replicas,
                        reported_lane_steps=out.extras["total_time_units"] / q.step)

        def reduce(span, a, out):
            span.update(samples=int(np.size(a["log_weights"])), ess=out.ess,
                        top1=out.extras["top1_weight_share"])

        def written(span, a, out):
            # one "\n"-terminated line per row after the header; cells are
            # numbers or short labels, never multi-line
            with open(a["path"], "rb") as fh:
                data = fh.read()
            span.update(path=a["path"], bytes=len(data), rows=data.count(b"\n") - 1)

        def profile(span, bound):
            fam = bound.arguments["family"]
            span.update(replicas=bound.arguments["replicas"], t_grid=list(fam.t_grid))
            bound.arguments["family"] = dataclasses.replace(
                fam, simulate_multi=self._timed_family(fam.simulate_multi))

        self._wrap(cli, "conditional_samples", "passage.conditional_samples", samples)
        self._wrap(passage, "conditional_samples", "passage.conditional_samples", samples)
        self._wrap(cli, "estimate_conditional", "passage.estimate_conditional")
        self._wrap(cli, "oracle_rejection", "passage.oracle_rejection", oracle)
        self._wrap(cli, "importance_estimate", "densities.importance_estimate", reduce)
        self._wrap(passage, "importance_estimate", "densities.importance_estimate", reduce)
        self._wrap(cli, "write_csv", "reporting.write_csv", written)
        self._wrap(diagnostics, "q_tail_profile", "diagnostics.q_tail_profile",
                   before=profile)

        orig = self._generator = RngStream.generator
        tracer = self

        def generator(stream, *sub):
            rec = {"t": time.perf_counter(), "job": tracer.job,
                   "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                   "address": [stream.master_seed, stream.stream_id, *sub],
                   "calls": []}
            tracer.gens.append(rec)
            return RecordingGenerator(orig(stream, *sub), rec["calls"])

        RngStream.generator = generator
        self._undo.append((RngStream, "generator", orig))

    def _timed_family(self, simulate_multi):
        def timed(stream, t, size):
            span = self.begin("diagnostics.simulate_multi", t=t, size=size)
            try:
                return simulate_multi(stream, t, size)
            finally:
                self.end(span)
        return timed

    def uninstall(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)

    # -- RNG replay -------------------------------------------------------

    def replay(self):
        """Repeat every recorded draw sequence on a fresh generator at the
        same address, timing each; one span per generator."""
        from rarepath.rng import RngStream

        for i, rec in enumerate(self.gens):
            seed, sid, *sub = rec["address"]
            self.job = rec["job"]
            span = self.begin("rng.replay", generator=i)
            t = time.perf_counter()
            gen = self._generator(RngStream(seed, sid), *sub)
            for kind, size in rec["calls"]:
                getattr(gen, "standard_normal" if kind == "normal" else kind)(size)
            rec["replay_s"] = time.perf_counter() - t
            self.end(span)
        self.job = None

    # -- output -----------------------------------------------------------

    def dump(self, path, extra):
        def rel(t):
            return None if t is None else t - self.t0

        spans = [{**s, "start": rel(s["start"]), "end": rel(s["end"])}
                 for s in self.spans]
        gens = [{k: v for k, v in g.items() if k not in ("calls", "profile")} | {
                    "t": rel(g["t"]), "draw_calls": len(g["calls"]),
                    "lane_steps": sum(g.get("profile") or ())}
                for g in self.gens]
        with open(path, "w") as fh:
            json.dump({**extra, "spans": spans, "generators": gens}, fh,
                      default=float)


# ---------------------------------------------------------------------------
# per-layer metrics


def _dur(span):
    return span["end"] - span["start"]


def _phases(tracer, job_meta):
    """Split each job's engine generators into phases: a run of consecutive
    generators of one engine under one public call.  A phase lasts from its
    first generator's creation to the next traced event after its last one.
    Returns (phases, problems)."""
    problems = []
    by_id = {s["id"]: s for s in tracer.spans}
    phases = []
    for job in sorted({g["job"] for g in tracer.gens}):
        current = None
        for g in sorted((g for g in tracer.gens if g["job"] == job), key=lambda g: g["t"]):
            parent = by_id.get(g["parent"])
            if parent is not None and parent["name"] == "diagnostics.simulate_multi":
                kind = job_meta[job]["family"]
                g["kind"], g["profile"] = kind, lane_profile(g["calls"], PATTERNS[kind])
                if g["profile"] is None:
                    problems.append(f"{job}: {kind} draws do not follow the replayed pattern")
                continue
            for kind in ("is", "rej"):
                prof = lane_profile(g["calls"], PATTERNS[kind])
                if prof is not None:
                    g["kind"], g["profile"] = kind, prof
                    break
            else:
                g["kind"], g["profile"] = "unknown", None
                problems.append(f"{job}: engine draws follow no replayed pattern")
                continue
            if current and current["kind"] == g["kind"] and current["parent"] is parent:
                current["gens"].append(g)
            else:
                current = {"job": job, "kind": g["kind"], "parent": parent, "gens": [g],
                           "workers": job_meta[job]["workers"]}
                phases.append(current)
    for ph in phases:
        last = ph["gens"][-1]["t"]
        ph["start"] = ph["gens"][0]["t"]
        ph["end"] = _marks_after(tracer, ph["job"], last)[0]
        ph["lane_steps"] = sum(sum(g["profile"]) for g in ph["gens"])
        ph["batch_lane_steps"] = [sum(g["profile"]) for g in ph["gens"]]
        ph["iterations"] = [len(g["profile"]) for g in ph["gens"]]
    _check_lane_steps(phases, problems)
    return phases, problems


def _marks_after(tracer, job, t):
    marks = [s["start"] for s in tracer.spans if s["job"] == job]
    marks += [s["end"] for s in tracer.spans if s["job"] == job and s["end"] is not None]
    marks += [g["t"] for g in tracer.gens if g["job"] == job]
    return sorted(m for m in marks if m > t)


def _check_lane_steps(phases, problems):
    """Check each phase's lane-step count against the count the program
    itself reports (``total_time_units / step``); attach the rejection
    engine's accepted and attempted counts."""
    for ph in phases:
        parent = ph["parent"]
        if parent is None:
            problems.append(f"{ph['job']}: engine ran outside any traced call")
            continue
        reported = parent["reported_lane_steps"]
        if ph["kind"] == "rej":
            ph["acceptance"] = (parent["accepted"], parent["attempts"])
        if abs(reported - ph["lane_steps"]) > 1e-6 * max(1.0, reported):
            problems.append(f"{ph['job']}: replayed {ph['lane_steps']} lane-steps, "
                            f"program reports {reported:.1f}")


def _engine(phases, kind, workers=1):
    sel = [p for p in phases if p["kind"] == kind and p["workers"] == workers]
    return {
        "time": sum(p["end"] - p["start"] for p in sel),
        "lane_steps": sum(p["lane_steps"] for p in sel),
        "iterations": sum(sum(p["iterations"]) for p in sel),
        # longest lane over mean lane, in steps, of the most skewed batch
        "tail_ratio": max((len(g["profile"]) * g["profile"][0] / sum(g["profile"])
                           for p in sel for g in p["gens"]), default=0.0),
        "rng": sum(g["replay_s"] for p in sel for g in p["gens"]),
        "makespan": sum(two_worker_makespan(p["batch_lane_steps"]) for p in sel),
        "accepted": sum(p["acceptance"][0] for p in sel if "acceptance" in p),
        "attempts": sum(p["acceptance"][1] for p in sel if "acceptance" in p),
    }


def _ratio(a, b, scale=1.0):
    return scale * a / b if b else 0.0


def layer_metrics(tracer, job_meta):
    """Per-layer metrics of the ``--workers 1`` traced jobs (speedups compare
    them with the ``--workers 2`` ones).  A metric of a layer the workload
    does not run is 0.  Returns (metrics, problems); ``rng.*`` is None when
    the replay does not match the engines' own lane-step counts."""
    phases, problems = _phases(tracer, job_meta)
    w1 = {j for j, m in job_meta.items() if m["workers"] == 1}
    spans = [s for s in tracer.spans if s["job"] in w1]
    m = {}

    # passage: both engines
    e1, e2 = _engine(phases, "is"), _engine(phases, "is", workers=2)
    r1, r2 = _engine(phases, "rej"), _engine(phases, "rej", workers=2)
    m.update({
        "passage.is.ns_per_lane_step": _ratio(e1["time"], e1["lane_steps"], 1e9),
        "passage.is.kernel_ns_per_lane_step":
            _ratio(e1["time"] - e1["rng"], e1["lane_steps"], 1e9),
        "passage.is.lane_steps": e1["lane_steps"],
        "passage.is.iterations": e1["iterations"],
        "passage.is.us_per_iteration": _ratio(e1["time"], e1["iterations"], 1e6),
        "passage.is.tail_ratio": e1["tail_ratio"],
        "passage.is.speedup_w2": _ratio(e1["time"], e2["time"]),
        "passage.is.speedup_w2_bound": _ratio(e1["lane_steps"], e1["makespan"]),
        "passage.rej.ns_per_lane_step": _ratio(r1["time"], r1["lane_steps"], 1e9),
        "passage.rej.lane_steps": r1["lane_steps"],
        "passage.rej.acceptance": _ratio(r1["accepted"], r1["attempts"]),
        "passage.rej.speedup_w2": _ratio(r1["time"], r2["time"]),
    })

    # densities: the estimator reduction
    reduces = [s for s in spans if s["name"] == "densities.importance_estimate"]
    n = sum(s["samples"] for s in reduces)
    m["densities.reduce_ns_per_sample"] = _ratio(sum(map(_dur, reduces)), n, 1e9)
    m["densities.ess_fraction"] = _ratio(sum(s["ess"] for s in reduces), n)
    m["densities.top1_weight_share"] = max((s["top1"] for s in reduces), default=0.0)

    # diagnostics: family simulation and tail accumulation
    fam_gens = [g for g in tracer.gens if g["job"] in w1 and g.get("kind") in FAMILIES]
    sims = [s for s in spans if s["name"] == "diagnostics.simulate_multi"]
    for fam in FAMILIES:
        steps = sum(sum(g["profile"] or ()) for g in fam_gens if g["kind"] == fam)
        t = sum(_dur(s) for s in sims if job_meta[s["job"]].get("family") == fam)
        m[f"diagnostics.family.ns_per_lane_step.{fam}"] = _ratio(t, steps, 1e9)
    profiles = [s for s in spans if s["name"] == "diagnostics.q_tail_profile"]
    samples = sum(s["replicas"] * len(s["t_grid"]) for s in profiles)
    acc = sum(map(_dur, profiles)) - sum(map(_dur, sims))
    m["diagnostics.accumulate.ns_per_sample"] = _ratio(acc, samples, 1e9)
    for s in sims:
        fam = job_meta[s["job"]]["family"]
        step = job_meta[s["job"]]["step"]
        want = s["size"] * max(int(round(s["t"] / step)), 1)
        got = sum(sum(g["profile"] or ()) for g in fam_gens if g["parent"] == s["id"])
        if got != want:
            problems.append(f"{s['job']}: replayed {got} {fam} lane-steps, expected {want}")

    # reporting
    writes = [s for s in spans if s["name"] == "reporting.write_csv"]
    m["reporting.dump_ns_per_row"] = _ratio(sum(map(_dur, writes)),
                                            sum(s["rows"] for s in writes), 1e9)
    m["reporting.bytes"] = sum(s["bytes"] for s in writes)

    # cli glue: self time of each CLI call
    mains = [s for s in spans if s["name"] == "cli.main"]
    by_id = {s["id"]: s for s in tracer.spans}
    child = sum(_dur(s) for s in spans if by_id.get(s["parent"], {}).get("name") == "cli.main")
    m["cli.glue_s"] = sum(map(_dur, mains)) - child

    # rng: replayed draw time against the engine time it sits in
    eng = [p for p in phases if p["workers"] == 1]
    replay = sum(g["replay_s"] for p in eng for g in p["gens"]) \
        + sum(g["replay_s"] for g in fam_gens)
    lane_steps = sum(p["lane_steps"] for p in eng) \
        + sum(sum(g["profile"] or ()) for g in fam_gens)
    engine_time = sum(p["end"] - p["start"] for p in eng) + sum(map(_dur, sims))
    valid = not problems
    m["rng.ns_per_lane_step"] = _ratio(replay, lane_steps, 1e9) if valid else None
    m["rng.share"] = _ratio(replay, engine_time) if valid else None
    for ph in phases:
        tracer.spans.append({
            "id": len(tracer.spans), "name": f"passage.{ph['kind']}.engine",
            "start": ph["start"], "end": ph["end"], "parent": ph["parent"]["id"]
            if ph["parent"] else None, "job": ph["job"], "derived": True,
            "lane_steps": ph["lane_steps"]})
    return m, problems

