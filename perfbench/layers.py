"""Per-layer measurement from outside the program.

Nothing here edits ``src/``.  A :class:`LayerTracer` times calls *into*
each layer by wrapping public entry points the benchmark can reach:

* methods of the structure instances the benchmark built (instance
  attributes shadow the class methods, so the batch runner's
  ``getattr(sampler, "sample_bulk")`` finds the wrapper);
* the functions of the active ``repro.core.kernels`` backend module (the
  structures resolve every kernel through the module on each call);
* ``decode``/``encode`` in ``repro.serve.protocol`` (the server calls them
  through the module attribute);
* ``log_batch``/``snapshot`` of the server's ``DurableStore``.

Structure wrappers time only the outermost call, so a bulk method that
falls back to scalar inserts is charged once, to the bulk call.  Kernel
calls are attributed to the structure call they happen inside, which
gives the exact "kernel calls per scalar update" counts.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter_ns

#: Every kernel of the backend module; each is timed and counted.
KERNELS = (
    "splice_insert",
    "splice_delete",
    "search_left_scalar",
    "search_right_scalar",
    "search_right",
    "merge_runs",
    "merge_pair_runs",
    "take_out",
    "cum_table",
    "rejection_split",
    "flat_pick",
)

SCALAR_UPDATES = (
    "dynamic.insert",
    "dynamic.delete",
    "weighted.insert",
    "weighted.delete",
    "weighted.update_weight",
)
BULK_UPDATES = (
    "dynamic.insert_bulk",
    "dynamic.delete_bulk",
    "weighted.insert_bulk",
    "weighted.delete_bulk",
)


def _t_units(args, kwargs):
    return kwargs["t"] if "t" in kwargs else args[2]


def _len_units(args, kwargs):
    return len(args[0])


#: Structure methods wrapped per instance, with how many units
#: (samples, values, queries) one call carries.
STRUCTURE_METHODS = {
    "insert": None,
    "delete": None,
    "update_weight": None,
    "insert_bulk": _len_units,
    "delete_bulk": _len_units,
    "count": None,
    "peek_counts": _len_units,
    "sample_bulk": _t_units,
}


class LayerTracer:
    """Wrap layer entry points; accumulate ``[calls, ns, units]`` per name."""

    def __init__(self) -> None:
        self.tallies: dict[str, list[int]] = {}
        self.kernel_calls_in: Counter = Counter()  # outer call -> kernel calls
        self.accepted = 0  # rejection_split: accepted draws
        self.consumed = 0  # rejection_split: consumed draws
        self._outer: str | None = None
        self._undo: list[tuple] = []

    def tally(self, name: str) -> list[int]:
        return self.tallies.setdefault(name, [0, 0, 0])

    def reset(self) -> None:
        """Zero every accumulator in place (wrappers keep their references)."""
        for tally in self.tallies.values():
            tally[:] = [0, 0, 0]
        self.kernel_calls_in.clear()
        self.accepted = self.consumed = 0

    def freeze(self) -> dict:
        """Copy of the counts, for the exact-count prefix of a run."""
        return {
            "tallies": {k: list(v) for k, v in self.tallies.items()},
            "kernel_calls_in": Counter(self.kernel_calls_in),
            "accepted": self.accepted,
            "consumed": self.consumed,
        }

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, wrapper, instance: bool) -> None:
        original = owner.__dict__.get(attr) if instance else getattr(owner, attr)
        self._undo.append((owner, attr, original, instance))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            owner, attr, original, instance = self._undo.pop()
            if instance and original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def wrap_structure(self, structure, prefix: str) -> None:
        """Time the public methods of one structure instance."""
        for method, units in STRUCTURE_METHODS.items():
            fn = getattr(structure, method, None)
            if fn is not None:
                wrapper = self._outer_wrapper(fn, f"{prefix}.{method}", units)
                self._patch(structure, method, wrapper, instance=True)

    def _outer_wrapper(self, fn, name: str, units):
        tally = self.tally(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._outer is not None:  # an internal call: charged to the outer one
                return fn(*args, **kwargs)
            self._outer = name
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += perf_counter_ns() - start
                tally[0] += 1
                if units is not None:
                    tally[2] += units(args, kwargs)
                self._outer = None

        return wrapper

    def wrap_kernels(self, module) -> None:
        """Time and count every kernel of the active backend module.

        A kernel the module does not have is skipped; its metrics read 0.
        """
        for name in KERNELS:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            tally = self.tally(f"kernels.{name}")
            if name == "rejection_split":
                wrapper = self._rejection_wrapper(fn, tally)
            else:
                wrapper = self._kernel_wrapper(fn, tally)
            self._patch(module, name, wrapper, instance=False)

    def _kernel_wrapper(self, fn, tally):
        calls_in = self.kernel_calls_in

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter_ns()
            out = fn(*args)
            tally[1] += perf_counter_ns() - start
            tally[0] += 1
            calls_in[self._outer] += 1
            return out

        return wrapper

    def _rejection_wrapper(self, fn, tally):
        calls_in = self.kernel_calls_in

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter_ns()
            out = fn(*args)
            tally[1] += perf_counter_ns() - start
            tally[0] += 1
            calls_in[self._outer] += 1
            self.accepted += int(out[0].size)
            self.consumed += int(out[2])
            return out

        return wrapper

    def wrap_functions(self, module, names, prefix: str) -> None:
        """Time module-level functions (the wire protocol codec)."""
        for name in names:
            fn = getattr(module, name)
            self._patch(module, name, self._plain_wrapper(fn, f"{prefix}.{name}"), False)

    def wrap_store(self, store) -> None:
        """Time the server's WAL appends and checkpoints."""
        self._patch(
            store, "log_batch",
            self._plain_wrapper(store.log_batch, "store.log_batch", _len_units), True,
        )
        self._patch(
            store, "snapshot", self._plain_wrapper(store.snapshot, "store.snapshot"), True
        )

    def _plain_wrapper(self, fn, name: str, units=None):
        tally = self.tally(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += perf_counter_ns() - start
                tally[0] += 1
                if units is not None:
                    tally[2] += units(args, kwargs)

        return wrapper


def _per_call_us(tally) -> float:
    return tally[1] / tally[0] / 1e3 if tally and tally[0] else 0.0


def structure_metrics(tracer: LayerTracer, exact: dict) -> dict:
    """Per-layer metrics of the structures and kernels.

    Times come from the whole traced phase; the kernel call counts and the
    rejection acceptance come from ``exact`` (a :meth:`LayerTracer.freeze`
    taken at a fixed point of the op stream, so they repeat exactly on the
    seeded single-threaded workloads) over ``exact["ops"]`` ops.
    """
    t = tracer.tallies
    out: dict[str, float] = {}
    for prefix in ("dynamic", "weighted"):
        samples = t.get(f"{prefix}.sample_bulk")
        out[f"{prefix}.sample_ns_per_sample"] = (
            samples[1] / samples[2] if samples and samples[2] else 0.0
        )
        bulk_ns = bulk_values = 0
        for method in ("insert_bulk", "delete_bulk"):
            tally = t.get(f"{prefix}.{method}")
            if tally:
                bulk_ns += tally[1]
                bulk_values += tally[2]
        out[f"{prefix}.bulk_us_per_value"] = bulk_ns / bulk_values / 1e3 if bulk_values else 0.0
    out["dynamic.sample_bulk_us"] = _per_call_us(t.get("dynamic.sample_bulk"))
    for name in ("dynamic.count", "dynamic.peek_counts", *SCALAR_UPDATES):
        out[f"{name}_us"] = _per_call_us(t.get(name))

    frozen = exact["tallies"]
    calls_in = exact["kernel_calls_in"]
    exact_ops = max(1, exact["ops"])
    for name in KERNELS:
        out[f"kernels.{name}.us"] = _per_call_us(t.get(f"kernels.{name}"))
        out[f"kernels.{name}.calls_per_op"] = frozen.get(f"kernels.{name}", [0])[0] / exact_ops
    scalar_calls = sum(frozen.get(n, [0])[0] for n in SCALAR_UPDATES)
    out["kernels.calls_per_update"] = (
        sum(calls_in[n] for n in SCALAR_UPDATES) / scalar_calls if scalar_calls else 0.0
    )
    bulk_values = sum(frozen.get(n, [0, 0, 0])[2] for n in BULK_UPDATES)
    out["kernels.calls_per_bulk_value"] = (
        sum(calls_in[n] for n in BULK_UPDATES) / bulk_values if bulk_values else 0.0
    )
    out["kernels.rejection_acceptance"] = (
        exact["accepted"] / exact["consumed"] if exact["consumed"] else 0.0
    )
    return out


def structure_busy_ns(tracer: LayerTracer) -> int:
    """Total time spent inside outermost structure calls."""
    return sum(
        tally[1]
        for name, tally in tracer.tallies.items()
        if name.startswith(("dynamic.", "weighted."))
    )
