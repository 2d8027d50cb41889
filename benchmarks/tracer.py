"""Call counting and self-time spans around rsor's public functions.

The tracer works entirely from outside the library: it rebinds every name
under which an ``rsor`` module (or a module-level dict such as
``games.GAMES``) holds one of the target functions, and patches the target
methods on their classes.  Rebinding only the defining module is not
enough, because ``node``, ``sim`` and ``games`` from-import ``proc_onion``,
``form_onion`` and friends, and ``packet`` from-imports ``prg``, ``mac`` and
the KEM functions.

A target that the library no longer defines is reported as absent instead
of failing, so the benchmark keeps running while later changes shrink the
interfaces it observes.
"""

import sys
import time

# (layer, defining module, qualified name).  The layer names the metric;
# run_ideal_scenario lives in rsor.sim but is the ideal world's entry point.
TARGETS = (
    ("group", "rsor.group", "GroupParams.exp"),
    ("group", "rsor.group", "GroupParams.is_element"),
    ("group", "rsor.group", "GroupParams.encode"),
    ("group", "rsor.group", "GroupParams.decode"),
    ("crypto", "rsor.crypto", "prg"),
    ("crypto", "rsor.crypto", "mac"),
    ("crypto", "rsor.crypto", "prp_enc"),
    ("crypto", "rsor.crypto", "prp_dec"),
    ("crypto", "rsor.crypto", "ro_hb"),
    ("crypto", "rsor.crypto", "ro_hsym"),
    ("kem", "rsor.kem", "kem_keygen"),
    ("kem", "rsor.kem", "kem_chain_create"),
    ("kem", "rsor.kem", "kem_decap"),
    ("kem", "rsor.kem", "kem_blind"),
    ("packet", "rsor.packet", "form_onion"),
    ("packet", "rsor.packet", "proc_onion"),
    ("packet", "rsor.packet", "form_reply"),
    ("packet", "rsor.packet", "build_reply_onion"),
    ("packet", "rsor.packet", "recognize_onion"),
    ("packet", "rsor.packet", "serialize_header"),
    ("node", "rsor.node", "sender_send"),
    ("node", "rsor.node", "sender_on_onion"),
    ("node", "rsor.node", "relay_on_onion"),
    ("node", "rsor.node", "relay_forward"),
    ("node", "rsor.node", "relay_on_receiver_reply"),
    ("sim", "rsor.sim", "run_scenario"),
    ("ideal", "rsor.sim", "run_ideal_scenario"),
    ("games", "rsor.games", "GameOracles.proc"),
    ("games", "rsor.games", "GameOracles.reply"),
    ("games", "rsor.games", "game_tlu_forward"),
    ("games", "rsor.games", "game_slu_backward"),
    ("games", "rsor.games", "game_sti_tail"),
    ("games", "rsor.games", "game_correctness"),
)


def metric_key(layer, qualname):
    """``group.exp``, ``games.GameOracles.proc``: class names of the group
    layer are dropped because the layer has one class."""
    name = qualname.split(".", 1)[1] if layer == "group" else qualname
    return "%s.%s" % (layer, name)


def _rsor_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "rsor" or name.startswith("rsor."))]


class Tracer:
    """Counts calls and accumulates self time per target while active.

    Self time is a call's duration minus the durations of the wrapped calls
    it made.  ``install`` and ``uninstall`` bracket the traced region;
    ``active`` pauses counting (for work done outside the measured ops)
    without unwrapping.
    """

    def __init__(self):
        self.active = False
        self.calls = {}      # metric key -> call count
        self.self_ns = {}    # metric key -> accumulated self time
        self.absent = []     # metric keys the library does not define
        self._stack = []     # child-time accumulators of open spans
        self._bindings = []  # (container, key, original, is_item)

    def _wrap(self, key, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[key] += 1
                self_ns[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        traced.bench_traced = True
        return traced

    def install(self):
        """Wrap every target binding; call once, after set-up."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        # id(original function) -> wrapper; the originals stay referenced by
        # their modules, so no other object can share an id with one.
        wrappers = {}
        for layer, modname, qualname in TARGETS:
            key = metric_key(layer, qualname)
            self.calls[key] = 0
            self.self_ns[key] = 0
            owner = sys.modules.get(modname)
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            # Methods must be defined on the class itself, so that restoring
            # the original never shadows an inherited one.
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, fn)
            if cls_path:
                # Methods: patch the class, which every instance consults.
                self._rebind(owner, attr, wrapper, is_item=False)
            else:
                wrappers[id(fn)] = wrapper
        for mod in _rsor_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._rebind(mod, attr, wrappers[id(value)], is_item=False)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._rebind(value, k, wrappers[id(v)], is_item=True)
        self.active = True

    def _rebind(self, container, key, wrapper, is_item):
        if is_item:
            self._bindings.append((container, key, container[key], True))
            container[key] = wrapper
        else:
            self._bindings.append((container, key, getattr(container, key), False))
            setattr(container, key, wrapper)

    def uninstall(self):
        """Restore every binding that install replaced."""
        self.active = False
        for container, key, original, is_item in reversed(self._bindings):
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self._bindings = []
