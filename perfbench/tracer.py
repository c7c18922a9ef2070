"""Per-layer tracing of slnpoly from outside: wrappers on public entry points.

`Tracer.install` replaces each traced function by a timing wrapper in every
place a caller looks it up: module globals (`evaluator` imports
`require_valid` and `cli` imports `evaluate_closed` by name), registries
such as `identities.SUITES`, and class dictionaries (`LaurentPoly.__mul__`
is also `__rmul__`).  `Tracer.remove` puts every original back.  Nothing in
`src/slnpoly` is edited.

Calls into the coarse layers become spans (name, id, parent id, item,
start, end, self time), kept in memory and written out at the end.  The
Laurent ring operations run millions of times per pass, so they are only
counted and timed in aggregate; their time is still charged to the
enclosing span, so self times exclude it.
"""

from __future__ import annotations

import functools
import json
import time
import types
from pathlib import Path

# Span name -> (module, function) of the traced public entry points.
COARSE = {
    "spintensor.mat_mul": ("spintensor", "mat_mul"),
    "spintensor.kron": ("spintensor", "kron"),
    "diagram.parse_braid_word": ("diagram", "parse_braid_word"),
    "diagram.close_braid": ("diagram", "close_braid"),
    "diagram.braid_to_diagram": ("diagram", "braid_to_diagram"),
    "diagram.validate": ("diagram", "validate"),
    "evaluator.evaluate_tangle": ("evaluator", "evaluate_tangle"),
    "braidrep.rho": ("braidrep", "rho"),
    "braidrep.check_monoid_relations": ("braidrep", "check_monoid_relations"),
    "identities.check_ybe": ("identities", "check_ybe"),
    "identities.check_unitarity": ("identities", "check_unitarity"),
    "identities.check_singular_relations": ("identities", "check_singular_relations"),
    "identities.check_curl_vertex": ("identities", "check_curl_vertex"),
    "identities.check_moy": ("identities", "check_moy"),
    "identities.check_gamma_extension": ("identities", "check_gamma_extension"),
    "cli.run_cli": ("cli", "run_cli"),
}
# Aggregate name -> LaurentPoly methods; subtraction counts as addition.
LAURENT = {"laurent.mul": ("__mul__",), "laurent.add": ("__add__", "__sub__")}
_BUILDERS = ("diagram.parse_braid_word", "diagram.close_braid", "diagram.braid_to_diagram")
_IDENTITIES = {
    "ybe": "check_ybe", "unitarity": "check_unitarity",
    "singular": "check_singular_relations", "curl": "check_curl_vertex",
    "moy": "check_moy", "gamma": "check_gamma_extension",
}
_MARK = "_perfbench_layer"


def _holders(lib):
    """Every namespace a caller can look a traced function up in."""
    for module in lib.modules:
        yield module
        for value in vars(module).values():
            if isinstance(value, dict):
                yield value
            elif isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _entries(holder):
    return holder.items() if isinstance(holder, dict) else vars(holder).items()


def _put(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


def installed_wrappers(lib) -> list[str]:
    """Names of tracing wrappers currently reachable in slnpoly; [] when clean."""
    found = []
    for holder in _holders(lib):
        for key, value in list(_entries(holder)):
            if isinstance(value, types.FunctionType) and hasattr(value, _MARK):
                found.append(f"{getattr(holder, '__name__', 'dict')}.{key}")
    return found


class Tracer:
    """Timing wrappers around slnpoly's layers, plus the spans they record."""

    def __init__(self, lib):
        self._lib = lib
        self._clock = time.perf_counter
        # Frames are [child seconds, span id]; the root frame has id 0.
        self._stack = [[0.0, 0]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []
        self.item = -1
        self.spans: list[tuple] = []
        # name -> [calls, inclusive s, self s, laurent products inside, nnz out]
        self.stats = {name: [0, 0.0, 0.0, 0, 0] for name in (*COARSE, *LAURENT)}
        self.mul_by_one = 0
        self.out_max = {"terms": 0, "span": 0, "coeff_bits": 0}

    # -- installing and removing ------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        lib = self._lib
        targets = {}
        for name, (module, attr) in COARSE.items():
            orig = getattr(getattr(lib, module), attr)
            targets[id(orig)] = (orig, self._coarse(name, orig))
        cls = lib.laurent.LaurentPoly
        for name, methods in LAURENT.items():
            for method in methods:
                orig = vars(cls)[method]
                targets[id(orig)] = (orig, self._ring(name, orig))
        for holder in _holders(lib):
            for key, value in list(_entries(holder)):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    _put(holder, key, hit[1])
                    self._patches.append((holder, key, value))

    def remove(self) -> None:
        for holder, key, orig in reversed(self._patches):
            _put(holder, key, orig)
        self._patches.clear()

    # -- the wrappers -----------------------------------------------------

    def _coarse(self, name, orig):
        stack, stat, clock = self._stack, self.stats[name], self._clock
        products = self.stats["laurent.mul"]
        counts_nnz = name in ("spintensor.mat_mul", "spintensor.kron")

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            muls = products[0]
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own
                stat[3] += products[0] - muls
                self.spans.append((name, frame[1], parent[1], self.item, start, end, own))
                parent[0] += clock() - start
            if counts_nnz:
                stat[4] += len(result)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _ring(self, name, orig):
        stack, stat, clock = self._stack, self.stats[name], self._clock
        out_max = self.out_max
        is_mul = name == "laurent.mul"

        @functools.wraps(orig)
        def wrapper(a, b):
            start = clock()
            result = orig(a, b)
            elapsed = clock() - start
            stat[0] += 1
            stat[1] += elapsed
            if is_mul and (a == 1 or b == 1):
                self.mul_by_one += 1
            coeffs = getattr(result, "_coeffs", None)
            if coeffs:
                if len(coeffs) > out_max["terms"]:
                    out_max["terms"] = len(coeffs)
                span = max(coeffs) - min(coeffs)
                if span > out_max["span"]:
                    out_max["span"] = span
                bits = max(abs(c) for c in coeffs.values()).bit_length()
                if bits > out_max["coeff_bits"]:
                    out_max["coeff_bits"] = bits
            # Charge the bookkeeping to this call, not to the caller's self time.
            stack[-1][0] += clock() - start
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values named as in BENCHMARK.json (all but the import,
        which the set-ups measure, and the overhead, which needs two passes)."""
        s = self.stats
        mul, add = s["laurent.mul"], s["laurent.add"]
        tangle = s["evaluator.evaluate_tangle"]
        metrics = {
            "laurent.mul_calls": mul[0],
            "laurent.mul_s": mul[1],
            "laurent.mul_by_one_frac": self.mul_by_one / mul[0] if mul[0] else 0.0,
            "laurent.add_calls": add[0],
            "laurent.add_s": add[1],
            "laurent.out_max_terms": self.out_max["terms"],
            "laurent.out_max_span": self.out_max["span"],
            "laurent.out_max_coeff_bits": self.out_max["coeff_bits"],
            "spintensor.mat_mul_calls": s["spintensor.mat_mul"][0],
            "spintensor.mat_mul_s": s["spintensor.mat_mul"][1],
            "spintensor.kron_calls": s["spintensor.kron"][0],
            "spintensor.kron_s": s["spintensor.kron"][1],
            "spintensor.out_nnz": s["spintensor.mat_mul"][4] + s["spintensor.kron"][4],
            "diagram.build_s": sum(s[name][1] for name in _BUILDERS),
            "diagram.validate_calls": s["diagram.validate"][0],
            "diagram.validate_s": s["diagram.validate"][1],
            "evaluator.calls": tangle[0],
            "evaluator.self_s": tangle[2],
            "evaluator.mul_per_call": tangle[3] / tangle[0] if tangle[0] else 0.0,
            "braidrep.rho_calls": s["braidrep.rho"][0],
            "braidrep.rho_self_s": s["braidrep.rho"][2],
            "braidrep.monoid_s": s["braidrep.check_monoid_relations"][1],
            "cli.run_cli_s": s["cli.run_cli"][1],
        }
        for suite, func in _IDENTITIES.items():
            metrics[f"identities.{suite}_s"] = s[f"identities.{func}"][1]
        return metrics

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "id", "parent", "item", "start", "end", "self_s")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
