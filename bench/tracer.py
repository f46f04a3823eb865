"""Spans around the library's public functions, installed from outside.

`install()` rebinds each traced name in every module namespace that holds
it (identity match), so calls between raycap modules are counted as well as
calls from the benchmark. Methods are wrapped on their class. Nothing under
src/ is edited; a process that never calls `install()` runs the library
untouched.

Spans are kept in flat arrays in memory and written out once at the end.
A span's self time is its duration minus the time its child spans cover;
the library is single-threaded, so children are nested and disjoint.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# module -> traced public names ("Class.method" for methods)
TRACED = {
    "abgroup": ("snf", "hnf_rows"),
    "quadfield": (
        "class_group",
        "ray_class_group",
        "fundamental_unit",
        "class_key",
        "is_principal_with_generator",
        "RayClassData.dlog",
    ),
    "exactmath": ("is_prime", "factor", "sqrt_mod", "roots_mod_p"),
    "kummerfrob": ("ConditionChecker.check", "residue_character"),
    "capsearch": ("find_principalizing_prime", "gaussian_period_min_poly"),
    "biquad": (
        "verify_certificate",
        "unit_group",
        "class_number",
        "is_principal",
        "sqrt_in_biquad",
        "primes_above",
        "adjust_to_congruence",
    ),
    "ambigcheck": ("ambig_case", "norm_index_units"),
    "report": ("stamp",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.snf_max_rows = 0
        self.snf_max_cols = 0
        self.snf_cells = 0

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        shape = name == "abgroup.snf"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if shape:
                rows = len(args[0])
                cols = len(args[0][0]) if rows else 0
                self.snf_max_rows = max(self.snf_max_rows, rows)
                self.snf_max_cols = max(self.snf_max_cols, cols)
                self.snf_cells += rows * cols
            i = len(self.name_of)
            self.name_of.append(idx)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            self.stack.append(i)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self.start[i] = t0
                self.stack.pop()

        return traced

    def install(self, extra_namespaces=()) -> None:
        """Wrap every name in TRACED and rebind it wherever it is held."""
        modules = {}
        for short in TRACED:
            modules[short] = importlib.import_module(f"raycap.{short}")
        namespaces = [m for n, m in sys.modules.items()
                      if n == "raycap" or n.startswith("raycap.")]
        namespaces += list(extra_namespaces)
        for short, names in TRACED.items():
            mod = modules[short]
            for name in names:
                full = f"{short}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(full, cls.__dict__[meth]))
                    continue
                original = getattr(mod, name)
                traced = self._wrap(full, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)

    def summary(self) -> dict:
        """Per name: call count and self seconds."""
        n = len(self.name_of)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            k = self.name_of[i]
            calls[k] += 1
            self_ns[k] += self.end[i] - self.start[i] - covered[i]
        return {name: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
                for k, name in enumerate(self.names)}

    def write(self, path) -> None:
        """All spans: name, start and end (ns), parent span, op id."""
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                "spans": [list(t) for t in zip(self.name_of, self.start, self.end,
                                               self.parent, self.op)],
            }, fh, separators=(",", ":"))
