"""Tracing of evsikit's layers from outside the package.

`Tracer.install()` replaces selected public functions and methods of the
evsikit modules with wrappers that time each call.  Every module namespace
that bound the same function object (``from .model import run_psa`` and the
like) is patched, so calls between modules are seen too.  `uninstall()` puts
the originals back.

Calls are timed in CPU seconds of the process, like the end-to-end figures.
A layer's self time is its calls' duration minus the part spent in traced
calls made from inside them.  Counts (calls, rows, chain steps, outer draws)
are recorded at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from contextlib import contextmanager

def _fit_rows(args, kwargs):
    inb = args[0] if args else kwargs["inb"]
    return {"regression.fit_rows": len(inb.inb_theta)}


def _chain_steps(args, kwargs):
    names = ("logpost", "n_chains", "init", "scales", "n_keep", "burn_in")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return {"posterior.chain_steps": bound["n_chains"] * (bound["n_keep"] + bound["burn_in"])}


def _nested_outer(args, kwargs):
    return {"oracles.nested_outer": args[2] if len(args) > 2 else kwargs["n_outer"]}


# (module, attribute, class or None, layer metric stem, count extractor)
# A count extractor maps the call's (args, kwargs) to {count name: amount}.
TARGETS = (
    ("evsikit.rng", "generator", "SeedSpec", "rng.generator", None),
    ("evsikit.model", "run_psa", None, "model.run_psa", None),
    ("evsikit.model", "compute_inb", None, "model.compute_inb", None),
    ("evsikit.regression", "fit_conditional_mean", None, "regression.fit", _fit_rows),
    ("evsikit.preposterior", "build_plan", None, "preposterior.build_plan", None),
    ("evsikit.preposterior", "expected_posterior_variance", None,
     "preposterior.posterior_variance", None),
    ("evsikit.preposterior", "run_posterior", None, "preposterior.run_posterior", None),
    ("evsikit.posterior", "metropolis_ensemble", None, "posterior.metropolis", _chain_steps),
    ("evsikit.posterior", "draw", "BetaBinomialUpdate", "posterior.conjugate_draw", None),
    ("evsikit.posterior", "draw", "NormalNormalUpdate", "posterior.conjugate_draw", None),
    ("evsikit.posterior", "draw", "GammaExponentialUpdate", "posterior.conjugate_draw", None),
    ("evsikit.posterior", "draw", "NullUpdate", "posterior.conjugate_draw", None),
    ("evsikit.momentmatch", "estimate_evsi", None, "momentmatch.estimate_evsi", None),
    ("evsikit.oracles", "nested_mc_evsi", None, "oracles.nested", _nested_outer),
    ("evsikit.oracles", "regression_on_summaries_evsi", None, "oracles.ros", None),
)

# study-design callables live in frozen dataclass instances, not modules;
# `trace_design` wraps them per design object
DESIGN_TARGETS = (
    ("simulate_batch", "casemodels.simulate"),
    ("batch_inner_means", "casemodels.inner_means"),
)


class Tracer:
    def __init__(self):
        self.self_time: dict[str, float] = {}
        self.total_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []      # per open call: [time in traced child calls]
        self._paused = 0
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._stack.pop()
                tracer._close(name, end - start, frame[0])
                if counter is not None:
                    for key, amount in counter(args, kwargs).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + amount

        return traced

    def _close(self, name, duration, child_time):
        if self._stack:
            self._stack[-1][0] += duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time
        self.total_time[name] = self.total_time.get(name, 0.0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not recorded."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- patching --------------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "evsikit" or k.startswith("evsikit."))]
        for module_name, attr, cls_name, name, counter in TARGETS:
            owner = sys.modules[module_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(original, name, counter))
                self._patches.append((cls, attr, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def trace_design(self, design):
        """A copy of `design` whose data simulator and inner means are traced."""
        return dataclasses.replace(
            design, **{field: self.wrap(getattr(design, field), name)
                       for field, name in DESIGN_TARGETS}
        )

    # -- reporting ---------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass self times, calls and counts under the benchmark's names."""
        def self_s(name):
            return self.self_time.get(name, 0.0) / passes

        out = {f"{stem}_s": self_s(stem) for stem in (
            "regression.fit", "oracles.ros", "preposterior.posterior_variance",
            "posterior.metropolis", "oracles.nested", "casemodels.inner_means",
            "preposterior.run_posterior", "posterior.conjugate_draw", "rng.generator",
            "model.run_psa", "model.compute_inb", "preposterior.build_plan",
            "casemodels.simulate",
        )}
        out["momentmatch.self_s"] = self_s("momentmatch.estimate_evsi")
        out["momentmatch.estimate_evsi_s"] = (
            self.total_time.get("momentmatch.estimate_evsi", 0.0) / passes)
        for key, stem in (("regression.fit_calls", "regression.fit"),
                          ("posterior.metropolis_calls", "posterior.metropolis"),
                          ("rng.generator_calls", "rng.generator"),
                          ("preposterior.points", "preposterior.run_posterior")):
            out[key] = self.calls.get(stem, 0) / passes
        for key in ("regression.fit_rows", "posterior.chain_steps", "oracles.nested_outer"):
            out[key] = self.counts.get(key, 0) / passes
        return out
