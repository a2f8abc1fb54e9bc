"""Per-layer spans of qjunta, recorded from outside the package.

:func:`install` replaces every public function of the six modules, and the
public methods and validating ``__post_init__`` of their classes, with a
wrapper that records a span (name, start, end, parent) and a few counters.
A function is rebound in every namespace that holds it, so ``junta``'s own
``concurrence_wootters`` and ``cli``'s ``junta_variable_test`` are traced as
well.  Nothing in the package changes; :meth:`Tracer.uninstall` puts every
original back.

Spans are recorded only inside a root opened with :meth:`Tracer.root`, so
set-up and output checking stay out of the numbers.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("boolfn", "qsim", "entangle", "junta", "learner", "cli")

# Self-time group of each traced function; anything not listed falls into
# "<module>.other".  Module-level groups ("junta", "learner", "cli") take
# every function of their module.
GROUP_OF = {
    "qsim.apply_hadamard_layer": "qsim.hadamard",
    "qsim.apply_bit_oracle": "qsim.oracle",
    "qsim.apply_phase_oracle": "qsim.oracle",
    "qsim.apply_derivative_oracle": "qsim.oracle",
    "qsim.BitOracle.apply": "qsim.oracle",
    "qsim.DerivativeOracle.apply": "qsim.oracle",
    "qsim.apply_x": "qsim.gate",
    "qsim.apply_cnot": "qsim.gate",
    "qsim.new_state": "qsim.prep",
    "qsim.reduced_density_two_qubits": "qsim.density",
    "qsim.prob_one": "qsim.readout",
    "qsim.prob_pair": "qsim.readout",
    "qsim.sample_counts": "qsim.readout",
    "qsim.StateVector.__post_init__": "qsim.validate",
    "qsim.TwoQubitDensity.__post_init__": "qsim.validate",
    "entangle.concurrence_wootters": "entangle.wootters",
    "entangle.effective_concurrence": "entangle.effective",
    "boolfn.parse_anf": "boolfn.parse",
    "boolfn.parse_truth_table": "boolfn.parse",
    "boolfn.to_truth_table": "boolfn.tabulate",
    "boolfn.function_values": "boolfn.tabulate",
    "boolfn.anf_from_truth_table": "boolfn.tabulate",
    "boolfn.TruthTable.__post_init__": "boolfn.tabulate",
    "boolfn.query": "boolfn.query",
    "boolfn.evaluate": "boolfn.query",
    "boolfn.influence_report": "boolfn.brute",
    "boolfn.linearity_probe": "boolfn.brute",
    "boolfn.count_ones": "boolfn.brute",
    "boolfn.same_term_variables_brute": "boolfn.brute",
}
# "bench" is the runner's root span: its self time is the untraced remainder.
WHOLE_MODULE_GROUPS = ("junta", "learner", "cli", "bench")

# Call counters: metric name -> traced functions whose spans it counts.
CALLS_OF = {
    "qsim.hadamard.calls": ("qsim.apply_hadamard_layer",),
    # The gathers: one per base-oracle application, two per derivative.
    "qsim.oracle.calls": ("qsim.apply_bit_oracle", "qsim.apply_phase_oracle"),
    "qsim.gate.calls": ("qsim.apply_x", "qsim.apply_cnot"),
    "qsim.readout.calls": ("qsim.prob_one", "qsim.prob_pair", "qsim.sample_counts"),
    "qsim.states": ("qsim.StateVector.__post_init__",),
    "entangle.wootters.calls": ("entangle.concurrence_wootters",),
    "entangle.effective.calls": ("entangle.effective_concurrence",),
    "boolfn.query.calls": ("boolfn.query",),
    "junta.verdicts": ("junta.junta_variable_test",),
    "junta.circuits": ("junta.influence_circuit",),
}

# Passes over the amplitude array (reads plus writes) per call, by the
# operation's arithmetic; multiplied by the state's byte size this gives the
# computed ``qsim.amp_bytes``.  It is a model of the work, not a measurement
# of memory traffic.
_PASSES = {
    "qsim.apply_x": 2,
    "qsim.apply_cnot": 2,
    "qsim.apply_bit_oracle": 2,
    "qsim.apply_phase_oracle": 2,
    "qsim.reduced_density_two_qubits": 1,
    "qsim.prob_one": 1,
    "qsim.prob_pair": 2,
}


def _state_bytes(name, args, kwargs, result):
    if name == "qsim.new_state":
        return result.amplitudes.nbytes
    if name == "qsim.StateVector.__post_init__":
        return args[0].amplitudes.nbytes  # the norm check reads the state once
    state = args[0] if args else kwargs.get("state")
    if name == "qsim.apply_hadamard_layer":
        qubits = args[1] if len(args) > 1 else kwargs.get("qubits")
        return 2 * len(qubits) * state.amplitudes.nbytes if hasattr(qubits, "__len__") else 0
    return _PASSES[name] * state.amplitudes.nbytes


def _verdict_calls(tracer, name, args, kwargs, result):
    tracer.counters["junta.oracle_calls_quantum"] += result.oracle_calls_quantum
    tracer.counters["junta.oracle_calls_classical"] += result.oracle_calls_classical
    oracle = args[0] if args else kwargs.get("f")
    if isinstance(oracle, tracer.derivative_oracle_type):
        tracer.counters["learner.derivative_tests"] += 1


def _amp_bytes(tracer, name, args, kwargs, result):
    tracer.counters["qsim.amp_bytes"] += _state_bytes(name, args, kwargs, result)


_HOOKS = {"junta.junta_variable_test": _verdict_calls}
_HOOKS.update(
    {name: _amp_bytes for name in (
        *_PASSES, "qsim.new_state", "qsim.apply_hadamard_layer", "qsim.StateVector.__post_init__",
    )}
)

COUNTERS = ("junta.oracle_calls_quantum", "junta.oracle_calls_classical",
            "learner.derivative_tests", "qsim.amp_bytes")


def group_of(name: str) -> str:
    module = name.split(".", 1)[0]
    if module in WHOLE_MODULE_GROUPS:
        return module
    return GROUP_OF.get(name, f"{module}.other")


class Tracer:
    """In-memory span recorder for the qjunta modules."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.derivative_oracle_type = importlib.import_module("qjunta.qsim").DerivativeOracle

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open a root span; spans are recorded only inside one."""
        self._stack.append(-1)
        idx = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(idx)
            self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function in every qjunta namespace binding it."""
        modules = {m: importlib.import_module(f"qjunta.{m}") for m in MODULES}
        namespaces = [importlib.import_module("qjunta"), *modules.values()]
        wrapped: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, wrapped[id(obj)])

    def _wrap_methods(self, qualname: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr == "__post_init__"):
                self._restore.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(f"{qualname}.{attr}", obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name index, parent index (-1 for roots), start, end."""
        return {
            "name": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the summed duration of its children."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = spans["parent"] >= 0
        covered = np.zeros_like(duration)
        np.add.at(covered, spans["parent"][child], duration[child])
        return duration - covered

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Self seconds per group plus call counts and counters, in totals."""
        spans = self.arrays()
        self_s = self.self_times()
        out: dict[str, float] = {}
        per_name = np.bincount(spans["name"], weights=self_s, minlength=len(self.names))
        counts = np.bincount(spans["name"], minlength=len(self.names))
        for name_id, name in enumerate(self.names):
            key = f"{group_of(name)}.self_s"
            out[key] = out.get(key, 0.0) + float(per_name[name_id])
        for metric, names in CALLS_OF.items():
            out[metric] = sum(int(counts[self._name_id[n]]) for n in names if n in self._name_id)
        out.update(self.counters)
        return out
