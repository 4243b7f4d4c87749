"""Per-layer tracing for the benchmark's traced runs, from outside the package.

Tracer.install() wraps every public function of the layer modules, plus
DensityMatrix.__init__, FrameStream.send/recv and each message class's
decode_payload, in a timing wrapper. The wrapper replaces the function's
name in every qpqsim module that holds it, not only where it is defined:
wire imports simulate_batch and friends from protocol, protocol imports
the transmission kernel and the Born tables, attacks imports the kernels
and fidelity. Each thread keeps its own span stack, so self time (a
call's duration less the part its wrapped children cover) is exact per
thread; the wire endpoints mark their thread as "alice" or "bob".
"""

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("qubits", "protocol", "planner", "attacks", "wire", "_kernels")
METHODS = {"qubits": {"DensityMatrix": ("__init__",)}, "wire": {"FrameStream": ("send", "recv")}}
ENDPOINT_ROLES = {"wire.run_alice_endpoint": "alice", "wire.run_bob_endpoint": "bob"}


def _count_batch(args, result):
    return (("protocol.photons_simulated", int(result[0].shape[0])),)


def _count_kernel_bytes(args, result):
    moved = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    moved += sum(r.nbytes for r in result)
    return (("kernels.transmission_bytes", int(moved)),)


def _count_fold(args, result):
    return (("protocol.retained", len(args[0])),)


def _count_frame(args, result):
    tag = args[0].TAG
    name = getattr(tag, "name", str(int(tag)))
    return ((f"wire.frames.{name}", 1), (f"wire.bytes.{name}", len(result)))


COUNTERS = {
    "protocol.simulate_batch": _count_batch,
    "_kernels.simulate_transmission": _count_kernel_bytes,
    "protocol.xor_compress": _count_fold,
    "wire.encode_frame": _count_frame,
}


class _ThreadState(threading.local):
    """Span stack and tallies of the current thread, registered on first use."""

    def __init__(self, registry, lock):
        thread = threading.current_thread()
        self.stack = []
        self.role = "main"
        self.stats = {}   # (role, key) -> [calls, inclusive s, self s]
        self.counts = {}  # counter name -> value
        with lock:
            registry.append((thread, thread is threading.main_thread(), self.stats, self.counts))


class Tracer:
    def __init__(self):
        self._registry = []
        self._lock = threading.Lock()
        self._state = _ThreadState(self._registry, self._lock)
        self._undo = []
        self.unwrapped = []

    # --- installation ---------------------------------------------------

    def _wrap(self, key, fn):
        state = self._state
        clock = time.perf_counter
        role = ENDPOINT_ROLES.get(key)
        count = COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state
            stack = st.stack
            if role is not None:
                outer_role, st.role = st.role, role
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                slot = (st.role, key)
                rec = st.stats.get(slot)
                if rec is None:
                    rec = st.stats[slot] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                if role is not None:
                    st.role = outer_role
            if count is not None:
                counts = st.counts
                for name, value in count(args, result):
                    counts[name] = counts.get(name, 0) + value
            return result

        return traced

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        modules = {layer: importlib.import_module(f"qpqsim.{layer}") for layer in LAYERS}
        replace = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                replace[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if cls is None or meth not in cls.__dict__:
                        self.unwrapped.append(f"{layer}.{cls_name}.{meth}")
                        continue
                    key = f"{layer}.{cls_name}.{meth}"
                    self._set(cls, meth, self._wrap(key, cls.__dict__[meth]))
            for cls in vars(mod).values():
                if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                    continue
                decoder = cls.__dict__.get("decode_payload")
                if isinstance(decoder, classmethod):
                    key = f"{layer}.{cls.__name__}.decode_payload"
                    self._set(cls, "decode_payload", classmethod(self._wrap(key, decoder.__func__)))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qpqsim" and not mod_name.startswith("qpqsim."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        return self

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # --- readout --------------------------------------------------------

    def reset(self):
        """Forget all tallies; threads that have ended are dropped."""
        with self._lock:
            self._registry[:] = [e for e in self._registry if e[0].is_alive()]
            for _, _, stats, counts in self._registry:
                stats.clear()
                counts.clear()

    def counts(self):
        total = {}
        with self._lock:
            for _, _, _, counts in self._registry:
                for name, value in counts.items():
                    total[name] = total.get(name, 0) + value
        return total

    def stats(self):
        """(role, key) -> [calls, inclusive s, self s], and the summed self
        time on the main thread, which blocks on every operation."""
        total, main_self = {}, 0.0
        with self._lock:
            for _, is_main, stats, _ in self._registry:
                for slot, (calls, incl, own) in stats.items():
                    rec = total.setdefault(slot, [0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += incl
                    rec[2] += own
                    if is_main:
                        main_self += own
        return total, main_self


CALLS, INCL, SELF = 0, 1, 2  # columns of a stats record


def _sum(stats, key, column, role=None):
    return sum(
        rec[column] for (r, k), rec in stats.items()
        if k == key and (role is None or r == role)
    )


def _sum_suffix(stats, prefix, suffix, column):
    return sum(
        rec[column] for (_, k), rec in stats.items()
        if k.startswith(prefix) and k.endswith(suffix)
    )



def layer_metrics(stats, counts, setup_stats):
    """The per-layer metrics of one traced pass (trace.* are added by the caller).

    stats and counts cover the pass; setup_stats covers building the
    inputs, where the session workloads do their planning.
    """
    def incl(key):
        return _sum(stats, key, INCL)

    photons = counts.get("protocol.photons_simulated", 0)
    frames = {k: v for k, v in counts.items() if k.startswith("wire.frames.")}
    sizes = {k: v for k, v in counts.items() if k.startswith("wire.bytes.")}
    metrics = {
        "qubits.born_tables_s": incl("qubits.born_outcome0_tables"),
        "qubits.born_tables_calls": _sum(stats, "qubits.born_outcome0_tables", CALLS),
        "qubits.density_check_s": incl("qubits.DensityMatrix.__init__"),
        "qubits.fidelity_s": incl("qubits.fidelity"),
        "qubits.trace_distance_s": incl("qubits.trace_distance"),
        "protocol.draw_s": incl("protocol.draw_bases") + _sum(stats, "protocol.simulate_batch", SELF),
        "protocol.sift_s": incl("protocol.sift_batch"),
        "protocol.fold_s": incl("protocol.xor_compress"),
        "protocol.query_s": incl("protocol.oblivious_query"),
        "protocol.batches": _sum(stats, "protocol.simulate_batch", CALLS),
        "protocol.photons_simulated": photons,
        "protocol.retained_ratio": counts.get("protocol.retained", 0) / photons if photons else 0.0,
        "kernels.transmission_s": incl("_kernels.simulate_transmission"),
        "kernels.transmission_bytes": counts.get("kernels.transmission_bytes", 0),
        "kernels.usd_trials_s": incl("_kernels.usd_trials"),
        "kernels.conclusiveness_s": incl("_kernels.conclusiveness_trials"),
        "wire.encode_s": incl("wire.encode_frame"),
        "wire.decode_s": _sum_suffix(stats, "wire.", ".decode_payload", INCL),
        "wire.send_s": _sum(stats, "wire.FrameStream.send", SELF),
        "wire.alice.recv_wait_s": _sum(stats, "wire.FrameStream.recv", SELF, role="alice"),
        "wire.bob.recv_wait_s": _sum(stats, "wire.FrameStream.recv", SELF, role="bob"),
        "wire.rounds": counts.get("wire.frames.PHOTON_BATCH_REQ", 0),
        "wire.frames": sum(frames.values()),
        "wire.bytes": sum(sizes.values()),
        "attacks.parity_mixtures_s": _sum(stats, "attacks.parity_mixtures", SELF),
        "attacks.joint_usd_s": _sum(stats, "attacks.joint_usd_bound", SELF),
        "attacks.monte_carlo_s": (
            incl("attacks.alice_individual_usd") + incl("attacks.bob_conclusiveness_attack")
            - incl("_kernels.usd_trials") - incl("_kernels.conclusiveness_trials")
        ),
        "planner.plan_s": incl("planner.plan_min_k") + _sum(setup_stats, "planner.plan_min_k", INCL),
        "planner.tables_s": incl("planner.check_tables"),
    }
    metrics.update(frames)
    metrics.update(sizes)
    return metrics
