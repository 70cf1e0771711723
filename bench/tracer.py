"""Spans around multlab's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every loaded
``multlab`` module that holds it, so calls through names other modules
imported (``from .summation import fsum_array``) are caught as well.  A
span records its layer, start, end and parent span; spans stay in memory
and are reduced to per-layer metrics when the run ends.  Self time is a
span's duration minus the time its child spans cover.

While ``active`` is False the wrappers call straight through, so output
checks and baseline builds leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

#: (module, function, layer); G and U share the ``dirichlet.euler_product`` layer
TRACED = (
    ("sieve", "build_sieve", "sieve.build_sieve"),
    ("sieve", "primes_up_to", "sieve.primes_up_to"),
    ("multfunc", "coefficient_stream", "multfunc.coefficient_stream"),
    ("multfunc", "integer_coefficient_stream", "multfunc.integer_coefficient_stream"),
    ("multfunc", "f_at_primes", "multfunc.f_at_primes"),
    ("dirichlet", "dirichlet_sum", "dirichlet.dirichlet_sum"),
    ("dirichlet", "identity_residual", "dirichlet.identity_residual"),
    ("dirichlet", "zeta", "dirichlet.zeta"),
    ("dirichlet", "euler_product_G", "dirichlet.euler_product"),
    ("dirichlet", "euler_product_U", "dirichlet.euler_product"),
    ("summation", "fsum_array", "summation.fsum_array"),
    ("summation", "prefix_sums_at", "summation.prefix_sums_at"),
    ("summation", "exact_prefix_sums_at", "summation.exact_prefix_sums_at"),
    ("primesums", "prime_sum_S", "primesums.prime_sum_S"),
    ("primesums", "weighted_tail_diagnostic", "primesums.weighted_tail_diagnostic"),
    ("primesums", "pretentious_distance_sq", "primesums.pretentious_distance_sq"),
    ("exponent", "checkpoint_partial_sums", "exponent.checkpoint_partial_sums"),
    ("exponent", "fit_exponent", "exponent.fit_exponent"),
    ("verify", "run_verify", "verify.run_verify"),
    ("cli", "main", "cli.main"),
    ("cli", "load_sieve_cache", "cli.load_sieve_cache"),
    ("cli", "save_sieve_cache", "cli.save_sieve_cache"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))

STREAM_LAYERS = ("multfunc.coefficient_stream", "multfunc.integer_coefficient_stream")
CACHE_LAYERS = ("cli.load_sieve_cache", "cli.save_sieve_cache")

#: layers whose element count is the length of this argument
ELEMS_ARG = {
    "multfunc.coefficient_stream": "limit",
    "multfunc.integer_coefficient_stream": "limit",
    "summation.fsum_array": "values",
    "summation.prefix_sums_at": "values",
}


def _length(value) -> int:
    return value if isinstance(value, int) else len(value)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [layer, start, end, parent index, elems]
        self._stack: list[int] = []
        self.stream_keys: list[tuple] = []
        self.cache_hits = 0
        self.cache_bytes = 0

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "multlab" or name.startswith("multlab."))
        ]
        for module_name, func_name, layer in TRACED:
            original = getattr(sys.modules[f"multlab.{module_name}"], func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, layer: str, fn):
        signature = inspect.signature(fn)
        counted = layer in ELEMS_ARG or layer in CACHE_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counted:
                self._count(layer, span, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _count(self, layer: str, span: list, arguments: dict, result) -> None:
        if layer in ELEMS_ARG:
            span[4] = _length(arguments[ELEMS_ARG[layer]])
        if layer in STREAM_LAYERS:
            key = (arguments["spec"].spec_id(), arguments["kind"].value, arguments["limit"])
            self.stream_keys.append(key)
        elif layer == "cli.load_sieve_cache" and result is not None:
            self.cache_hits += 1
            self.cache_bytes += result.spf.nbytes
        elif layer == "cli.save_sieve_cache":
            self.cache_bytes += os.path.getsize(result)

    def metrics(self, run_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``run_s`` is the traced time the shares refer to."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        total = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        elems = dict.fromkeys(LAYERS, 0)
        for i, (layer, start, end, _, n) in enumerate(self.spans):
            calls[layer] += 1
            total[layer] += end - start
            self_s[layer] += end - start - child[i]
            elems[layer] += n
        out: dict[str, tuple[float, str]] = {
            "sieve.build_sieve.s": (total["sieve.build_sieve"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_pct"] = (100.0 * self_s[layer] / run_s, "%")
        for layer in ELEMS_ARG:
            out[f"{layer}.elems"] = (elems[layer], "count")
        stream_calls = len(self.stream_keys)
        distinct = len(set(self.stream_keys))
        stream_s = sum(self_s[layer] for layer in STREAM_LAYERS)
        stream_elems = sum(elems[layer] for layer in STREAM_LAYERS)
        out["multfunc.stream.distinct"] = (distinct, "count")
        out["multfunc.stream.useful_ratio"] = (distinct / stream_calls if stream_calls else 0.0, "ratio")
        out["multfunc.stream.melem_per_s"] = (stream_elems / stream_s / 1e6 if stream_s else 0.0, "Melem/s")
        out["cli.load_sieve_cache.hits"] = (self.cache_hits, "count")
        out["cli.cache_bytes"] = (self.cache_bytes, "bytes")
        out["trace.run_s"] = (run_s, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out
