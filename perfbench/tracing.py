"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps public functions of the ``involsvd`` modules and
rebinds every name that refers to the original function in every loaded
``involsvd`` module, so calls through aliases such as
``structured_svd.kernel_svd``, ``cli.restructure`` or ``projector.classify``
are recorded too.  No file of the program is edited.  Spans are kept in
memory: name, start, end, parent span and operation id.  A span's self time
is its duration minus the durations of its direct children (calls nest
strictly in one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in traced runs; one layer per module
TRACED = (
    ("kernel", "svd"),
    ("kernel", "hermitian_eig"),
    ("kernel", "takagi_symmetric_unitary"),
    ("kernel", "skew_pair_unitary"),
    ("kernel", "qr_column_pivoted"),
    ("structures", "classify"),
    ("structured_svd", "restructure"),
    ("structured_svd", "pairing_spectrum_check"),
    ("structured_svd", "extract_T"),
    ("generators", "gen_structured"),
    ("canonical", "canonical_form"),
    ("canonical", "eigendecompose"),
    ("canonical", "consim_to_identity"),
    ("canonical", "consim_to_minusJ"),
    ("canonical", "coneigen_singles"),
    ("projector", "projector_svd"),
    ("projector", "householder_singular_values"),
    ("mmio", "read_matrix"),
    ("mmio", "write_matrix"),
    ("cli", "main"),
)

# spans whose first argument is a file path: bytes moved are recorded
_FILE_SPANS = ("mmio.read_matrix", "mmio.write_matrix")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, bytes]
        self._stack = []
        self._patched = []
        self.op = -1

    def install(self, package: str = "involsvd") -> None:
        for module_name, func_name in TRACED:
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == package or name.startswith(package + ".")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._patched.append((loaded, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        counts_bytes = name in _FILE_SPANS

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if counts_bytes and args:
                    try:
                        span[5] = os.path.getsize(args[0])
                    except OSError:
                        pass

        return wrapper

    def layers(self, in_ops: bool = True) -> dict:
        """Per span name: calls, total seconds, self seconds, bytes.

        ``in_ops`` selects the spans recorded inside timed operations;
        otherwise the spans recorded during set-up.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
        for index, (name, start, end, _, op, nbytes) in enumerate(self.spans):
            if (op >= 0) != in_ops:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["bytes"] += nbytes
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "bytes")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
