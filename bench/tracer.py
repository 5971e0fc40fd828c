"""Span tracer installed around the public functions of `welfareshare`.

The wrappers are installed from here, by rebinding module and class
attributes; the library source is never touched.  Every wrapped call that is
traced records one span ``(function id, start ns, end ns, parent span index,
call id)`` in an in-memory list.  Spans are written out once, at the end of
the run (`write_spans`).  Self time is derived afterwards from the spans
alone: a span's duration minus the durations of its direct children.

Two kinds of public call get no span, because a span would cost more than
the call and the calls number thousands per CLI call: memo hits of
`SetFunctionOracle.wmax_mask` (a dict lookup), and the bit and rational
helpers in `UNTRACED`.  Their time stays in the self time of the span that
called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = (
    "model",
    "welfare",
    "disagreement",
    "core",
    "egalitarian",
    "rivals",
    "decompose",
    "cli",
)

UNTRACED = frozenset(
    {
        "welfare.mask_of",
        "welfare.agents_of",
        "welfare.iter_nonempty_masks",
        "welfare.wpi",
        "model.parse_rational",
        "model.format_rational",
    }
)

WMAX = "welfare.SetFunctionOracle.wmax_mask"
ORACLE_INIT = "welfare.SetFunctionOracle.__init__"
SIMPLEX = "core.simplex_solve"

# Functions whose argument or result is recorded beside the span:
# the LP row count, and the verdicts behind the input-property shares.
NOTES = {
    SIMPLEX: lambda args, result: len(args[0].constraints),
    "welfare.is_submodular": lambda args, result: bool(result),
    "core.ws_core_nonempty": lambda args, result: bool(result),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.qualname"
        self.spans: list = []
        self.notes: defaultdict = defaultdict(list)  # (call id, name) -> values
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self._wrappers: dict = {}  # name -> (original, wrapper), kept across installs

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        note = NOTES.get(name)
        notes = self.notes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.call_id)
            if note is not None:
                notes[(self.call_id, name)].append(note(args, result))
            return result

        return wrapper

    def _wmax_wrapper(self, fn):
        """Spans only memo misses, the evaluations that compute W_max.  An
        oracle without a `_memo` has every call spanned."""
        traced = self._span_wrapper(fn, WMAX)

        @functools.wraps(fn)
        def wrapper(oracle, mask):
            memo = getattr(oracle, "_memo", None)
            if memo is not None and mask in memo:
                return fn(oracle, mask)
            return traced(oracle, mask)

        return wrapper

    def _wrapper_for(self, fn, name):
        original, wrapper = self._wrappers.get(name, (None, None))
        if original is not fn:
            wrapper = self._wmax_wrapper(fn) if name == WMAX else self._span_wrapper(fn, name)
            self._wrappers[name] = (fn, wrapper)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function and public-class method (and
        constructor) defined in the layer modules, and rebind each name in
        every layer module that imported it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"welfareshare.{layer}") for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in UNTRACED:
                    wrapper = self._wrapper_for(obj, f"{layer}.{attr}")
                    replaced[id(obj)] = wrapper
                    self._patch(mod, attr, obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        # names imported with `from .x import f` are separate bindings
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and getattr(mod, attr) is not wrapper:
                    self._patch(mod, attr, obj, wrapper)
        self._install_json(mods["cli"])

    def _install_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, raw, self._wrapper_for(raw, name))
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper_for(raw.__func__, name))
                self._patch(cls, attr, raw, wrapped)

    def _install_json(self, cli):
        """Give the CLI's own `json` a traced load and dumps, so parsing and
        output show as cli spans."""
        real = cli.json
        proxy = type(real)(real.__name__)
        proxy.__dict__.update(vars(real))
        proxy.load = self._wrapper_for(real.load, "cli.json.load")
        proxy.dumps = self._wrapper_for(real.dumps, "cli.json.dumps")
        self._patch(cli, "json", real, proxy)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def write_spans(self, path):
        """One JSON header line with the function names, then one CSV line
        per span: function id, start ns, end ns, parent index, call id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%d,%d\n" % span)


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of the span's
    direct children (children never outlive their parent)."""
    out = [end - start for _fid, start, end, _parent, _cid in spans]
    for fid, start, end, parent, _cid in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
