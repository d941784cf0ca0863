"""Timing spans and counters around the public entry points of qpzk's layers.

The spans live here, in the benchmark, not in the program: `install` swaps
each entry point for a wrapper in every loaded qpzk module that binds it
(a module attribute, a name imported with `from ... import`, or a class
attribute), and `uninstall` puts every original back.

Spans nest on one stack, as calls do in one thread. A span's self time is
its duration minus the union of the intervals its direct child spans cover.
A span whose name is already open further down the stack adds its calls and
self time but not its inclusive time, so recursion is not counted twice.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time

import numpy as np

# Dense kernels, each a span named core.linalg.<function>.
LINALG_KERNELS = (
    "apply_to_vector", "apply_to_matrix", "embed", "partial_trace_matrix",
    "partial_trace_vector", "clamped_eigh", "psd_sqrt", "polar_unitary",
    "permute_vector", "permute_matrix", "complete_to_unitary",
    "permutation_unitary",
)

# Construction checks: class -> (span name, attributes holding the checked arrays).
VALIDATED_CLASSES = {
    ("qpzk.core.states", "PureState"): ("core.validate.pure", ("amplitudes",)),
    ("qpzk.core.states", "MixedState"): ("core.validate.mixed", ("matrix",)),
    ("qpzk.core.operators", "UnitaryOp"): ("core.validate.unitary", ("matrix",)),
    ("qpzk.core.operators", "ProjectiveMeasurement"):
        ("core.validate.projective", ("projectors",)),
    ("qpzk.core.operators", "Povm"): ("core.validate.povm", ("elements",)),
}

# Other entry points: (module, class or None, attribute) -> span name.
ENTRY_POINTS = {
    ("qpzk.protocol", None, "run_protocol"): "protocol.run_protocol",
    ("qpzk.protocol", None, "verifier_view"): "protocol.verifier_view",
    ("qpzk.protocol", None, "sample_run"): "protocol.sample_run",
    ("qpzk.protocol", "InteractiveProtocol", "evolve"): "protocol.evolve",
    ("qpzk.optimize", None, "alternating_ascent"): "optimize.alternating_ascent",
    ("qpzk.optimize", None, "brute_force_prover_value"):
        "optimize.brute_force_prover_value",
    ("qpzk.optimize", None, "optimal_three_message_value"):
        "optimize.optimal_three_message_value",
    ("qpzk.optimize", None, "protocol_ascent_problem"): "optimize.protocol_ascent_problem",
    ("qpzk.compilers.pipeline", None, "build_pipeline"): "compilers.build",
    ("qpzk.compilers.collapse", None, "as_three_message"): "compilers.build",
    ("qpzk.compilers.collapse", "CollapsedProtocol", "__init__"): "compilers.build",
    ("qpzk.compilers.public_coin", None, "make_public_coin"): "compilers.build",
    ("qpzk.crypto.commitments", None, "run_double_open"): "crypto.double_open",
    ("qpzk.crypto.mac", "QuantumMac", "encode_unitary"): "crypto.mac.encode_unitary",
    ("qpzk.crypto.mac", "QuantumMac", "decode"): "crypto.mac.decode",
    ("qpzk.crypto.mac", "QuantumMac", "real_channel_output"):
        "crypto.mac.real_channel_output",
    ("qpzk.harness.experiments", None, "run_experiment"): "harness",
}

# Modules imported before the wrappers go in, so that the names they bind
# with `from ... import` are seen; qpzk.cli binds run_experiment that way.
LAYER_MODULES = sorted({"qpzk.core.linalg", "qpzk.cli"}
                       | {m for m, _ in VALIDATED_CLASSES}
                       | {m for m, _, _ in ENTRY_POINTS})

BOOKKEEPING = "tracing.bookkeeping"
MIB = 2.0 ** 20


def add_child_interval(frame: list, start: float, stop: float) -> None:
    """Fold one child interval into a frame's covered time.

    Children must arrive in order of start time, as they do in one thread;
    overlapping children then count their common part once.
    """
    if start < frame[4]:
        raise ValueError("child spans must be added in order of start time")
    frame[4] = start
    covered_to = frame[3]
    if start >= covered_to:
        frame[2] += stop - start
    elif stop > covered_to:
        frame[2] += stop - covered_to
    frame[3] = max(covered_to, stop)


class Tracer:
    """Span stack plus per-name totals: calls, inclusive and self seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self.gflop = 0.0
        self.max_dense_bytes = 0
        self.validations = 0
        self.validation_repeats = 0
        self._validated: set = set()
        self._branch_pairs: set = set()
        self._pinned: dict[int, object] = {}

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> None:
        # Frame: name, start, covered, covered-until, last child start.
        self._stack.append([name, self.clock(), 0.0, float("-inf"), float("-inf")])
        self._open[name] = self._open.get(name, 0) + 1

    def end(self) -> None:
        stop = self.clock()
        name, start, covered = self._stack.pop()[:3]
        self._open[name] -= 1
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        if self._open[name] == 0:
            stat[1] += stop - start
        stat[2] += (stop - start) - covered
        if self._stack:
            add_child_interval(self._stack[-1], start, stop)

    def top(self):
        return self._stack[-1][0] if self._stack else None

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def prefix_totals(self, prefix: str) -> tuple[int, float]:
        """Calls and self seconds summed over every name under prefix."""
        calls, self_s = 0, 0.0
        for name, (n, _, s) in self.stats.items():
            if name == prefix or name.startswith(prefix + "."):
                calls += n
                self_s += s
        return calls, self_s

    # -- counters ---------------------------------------------------------------

    def note_dense(self, *arrays) -> None:
        for arr in arrays:
            nbytes = getattr(arr, "nbytes", 0)
            if nbytes > self.max_dense_bytes:
                self.max_dense_bytes = nbytes

    def note_validation(self, kind: str, arrays) -> None:
        """Count one validation and whether the same input was seen before."""
        self.begin(BOOKKEEPING)
        try:
            digest = hashlib.blake2b(kind.encode(), digest_size=16)
            for arr in arrays:
                a = np.ascontiguousarray(np.asarray(arr, dtype=complex))
                digest.update(repr(a.shape).encode())
                digest.update(a.view(np.uint8).reshape(-1))
            key = digest.digest()
            self.validations += 1
            if key in self._validated:
                self.validation_repeats += 1
            else:
                self._validated.add(key)
        finally:
            self.end()

    def note_branch(self, protocol, strat, coin) -> None:
        self._pinned[id(protocol)] = protocol
        self._pinned[id(strat)] = strat
        self._branch_pairs.add((id(protocol), id(strat), int(coin)))

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        m: dict[str, float] = {}
        for bucket in ("n_ge10", "n_le6"):
            name = f"core.linalg.apply_to_vector.{bucket}"
            m[name + ".calls"] = self.calls(name)
            m[name + ".self_s"] = self.self_s(name)
        for kernel in ("apply_to_matrix", "partial_trace", "embed"):
            name = f"core.linalg.{kernel}"
            m[name + ".calls"] = self.calls(name)
            m[name + ".self_s"] = self.self_s(name)
        m["core.linalg.max_dense_mb"] = self.max_dense_bytes / MIB
        m["core.linalg.gflop_computed"] = self.gflop
        calls, self_s = self.prefix_totals("core.validate")
        m["core.validate.calls"] = calls
        m["core.validate.self_s"] = self_s
        for kind in ("unitary", "mixed"):
            name = f"core.validate.{kind}"
            m[name + ".calls"] = self.calls(name)
            m[name + ".self_s"] = self.self_s(name)
        m["core.validate.repeat_share"] = (
            self.validation_repeats / self.validations if self.validations else 0.0)
        m["protocol.evolve.calls"] = self.calls("protocol.evolve")
        m["protocol.evolve.self_s"] = self.self_s("protocol.evolve")
        name = "optimize.alternating_ascent"
        m[name + ".calls"] = self.calls(name)
        m[name + ".s"] = self.inclusive_s(name)
        m[name + ".self_s"] = self.self_s(name)
        m["optimize.brute_force_prover_value.s"] = self.inclusive_s(
            "optimize.brute_force_prover_value")
        m["compilers.build.s"] = self.inclusive_s("compilers.build")
        name = "compilers.branch_value"
        calls = self.calls(name)
        m[name + ".calls"] = calls
        m[name + ".self_s"] = self.self_s(name)
        m[name + ".distinct_share"] = len(self._branch_pairs) / calls if calls else 0.0
        m["crypto.double_open.games"] = self.calls("crypto.double_open")
        m["crypto.double_open.self_s"] = self.self_s("crypto.double_open")
        for method in ("encode_unitary", "decode", "real_channel_output"):
            name = f"crypto.mac.{method}"
            m[name + ".calls"] = self.calls(name)
            m[name + ".s"] = self.inclusive_s(name)
        m["harness.self_s"] = self.self_s("harness")
        return m


# -- wrappers -------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn, before=None, after=None):
    """fn wrapped in a span; before(args) may return a more specific name."""

    def wrapped(*args, **kwargs):
        span = (before(args) or name) if before else name
        tracer.begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, out)
        return out

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.perfbench_span = name
    return wrapped


def _vector_kernel(tracer: Tracer):
    def before(args):
        op, _, targets, n = args[:4]
        tracer.gflop += 8.0 * 2 ** len(targets) * 2 ** n / 1e9
        if n <= 6:
            return "core.linalg.apply_to_vector.n_le6"
        if n >= 10:
            return "core.linalg.apply_to_vector.n_ge10"
        return "core.linalg.apply_to_vector.n_7to9"
    return before


def _matrix_kernel(tracer: Tracer):
    def before(args):
        _, _, targets, n = args[:4]
        # op applied to all 2^n columns, once from each side.
        tracer.gflop += 2 * 8.0 * 2 ** len(targets) * 4 ** n / 1e9
        return None
    return before


def _validator(tracer: Tracer, name: str, fn, fields):
    """Span around a construction check; a check nested in another check
    (is_unitary inside UnitaryOp) belongs to the outer one."""

    def wrapped(*args, **kwargs):
        outer = tracer.top()
        if outer is not None and outer.startswith("core.validate"):
            return fn(*args, **kwargs)
        if fields:
            obj = args[0]
            inputs = [getattr(obj, f) for f in fields]
            if isinstance(inputs[0], tuple):
                inputs = list(inputs[0])
        else:
            inputs = [args[0]]
        tracer.note_validation(name, inputs)
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if fields:
            for f in fields:
                value = getattr(args[0], f)
                tracer.note_dense(*(value if isinstance(value, tuple) else (value,)))
        return out

    wrapped.__wrapped__ = fn
    wrapped.__name__ = getattr(fn, "__name__", name)
    wrapped.perfbench_span = name
    return wrapped


class Installation:
    """The wrappers of one traced run; `uninstall` restores the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, wrapper) -> None:
        """Replace the function in its module and in every qpzk module
        that imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "qpzk" or mod_name.startswith("qpzk.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def patch_method(self, module_name: str, cls_name: str, attr: str, wrapper) -> None:
        self._set(getattr(sys.modules[module_name], cls_name), attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer entry point; returns the handle that removes them."""
    for name in LAYER_MODULES:
        importlib.import_module(name)
    inst = Installation()
    linalg = sys.modules["qpzk.core.linalg"]

    def dense_out(args, out):
        tracer.note_dense(*(out if isinstance(out, tuple) else (out,)))

    for kernel in LINALG_KERNELS:
        before = None
        if kernel == "apply_to_vector":
            before = _vector_kernel(tracer)
        elif kernel == "apply_to_matrix":
            before = _matrix_kernel(tracer)
        span = ("core.linalg.partial_trace" if kernel.startswith("partial_trace")
                else f"core.linalg.{kernel}")
        inst.patch_function("qpzk.core.linalg", kernel,
                            _span(tracer, span, getattr(linalg, kernel), before, dense_out))
    inst.patch_function("qpzk.core.linalg", "is_unitary",
                        _validator(tracer, "core.validate.unitary",
                                   linalg.is_unitary, None))
    for (module_name, cls_name), (span, fields) in VALIDATED_CLASSES.items():
        cls = getattr(sys.modules[module_name], cls_name)
        inst.patch_method(module_name, cls_name, "__post_init__",
                          _validator(tracer, span, cls.__post_init__, fields))
    for (module_name, cls_name, attr), span in ENTRY_POINTS.items():
        mod = sys.modules[module_name]
        if cls_name is None:
            inst.patch_function(module_name, attr, _span(tracer, span, getattr(mod, attr)))
        else:
            cls = getattr(mod, cls_name)
            inst.patch_method(module_name, cls_name, attr,
                              _span(tracer, span, cls.__dict__[attr]))
    pc = sys.modules["qpzk.compilers.public_coin"].PublicCoinProtocol
    inst.patch_method(
        "qpzk.compilers.public_coin", "PublicCoinProtocol", "branch_value",
        _span(tracer, "compilers.branch_value", pc.__dict__["branch_value"],
              before=lambda args: tracer.note_branch(*args[:3])))
    return inst
