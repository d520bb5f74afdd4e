"""Spans around the public functions of every modheat layer, from outside.

`install` wraps each public function of the layer modules and rebinds it at
every import site: the defining module, every other loaded `modheat.*`
module that imported it by name, and module-level dicts (the CLI's command
table).  A wrapper records one span per call -- name, start, end, parent
span and invocation id -- in memory, with the time of host-speed samples
taken inside it (`paused`) cut from its end; `aggregate` turns the spans into
per-function call counts, inclusive and self times.  `unwrapped` finds any
reference to an original function that `install` did not rebind, so an import
site it misses is reported rather than silently left out of the spans.
Nothing under `src/` is changed; the wrappers live only in the benchmark
process.
"""

import gc
import inspect
import os
import sys
import time
import types
import weakref
from functools import wraps
from hashlib import blake2b

LAYERS = ("spectral", "modnorm", "heat", "hermite", "torus", "cli")


def _inverse_bytes(args, kwargs, result):
    return args[0].values.nbytes


def _solve_steps(args, kwargs, result):
    return len(result.times) - 1


def _stft_key(args, kwargs, result):
    f, _, spec = args[:3]
    refine = args[3] if len(args) > 3 else kwargs.get("refine", 1)
    digest = blake2b(f.values.tobytes(), digest_size=16).digest()
    return (digest, f.grid, spec, refine)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(result)


class Tracer:
    """In-memory span log; spans of one CLI invocation share its id."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, invocation, extra]
        self._stack = []
        self.invocation = -1
        self.wrapped = set()  # "layer.function" names that got a wrapper
        self._wrappers = []   # (name, wrapper); __wrapped__ is the original
        # time spent in host-speed samples, which spans leave out
        self.paused = 0.0
        self.sites = 0        # import sites rebound
        self._blocks = weakref.WeakKeyDictionary()  # partition -> active blocks
        # per-span annotations, computed after the span closes
        self._extras = {
            "spectral.inverse_transform": _inverse_bytes,
            "heat.solve": _solve_steps,
            "modnorm.mod_norm_from_frequency": self._partition_blocks,
            "modnorm.mod_norm_stft": _stft_key,
            "cli.write": _written_bytes,
        }

    def _partition_blocks(self, args, kwargs, result):
        partition = args[2] if len(args) > 2 else kwargs["partition"]
        count = self._blocks.get(partition)
        if count is None:
            count = sum(1 for _ in partition.active_keys())
            self._blocks[partition] = count
        return count

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = self._extras.get(name)
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.invocation, None]
            spans.append(span)
            stack.append(idx)
            paused = self.paused
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock() - (self.paused - paused)
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        self.wrapped.add(name)
        self._wrappers.append((name, wrapper))
        return wrapper

    def install(self):
        """Wrap every layer's public functions at all of their import sites."""
        import modheat.cli

        replace = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"modheat.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    if layer == "cli" and attr.startswith("cmd_"):
                        name = "cli.command"
                    replace[id(obj)] = (obj, self.wrap(name, obj))
        record = modheat.cli.RunRecord
        for attr in ("write_csv", "write_json"):
            setattr(record, attr, self.wrap("cli.write", getattr(record, attr)))

        def swap(obj):
            hit = replace.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for modname, mod in list(sys.modules.items()):
            if modname != "modheat" and not modname.startswith("modheat."):
                continue
            for attr, obj in list(vars(mod).items()):
                new = swap(obj)
                if new is not None:
                    setattr(mod, attr, new)
                    self.sites += 1
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        new = swap(val)
                        if new is not None:
                            obj[key] = new
                            self.sites += 1

    def unwrapped(self):
        """Holders of an original function other than its own wrapper.

        After `install` an original is held only by its wrapper (closure cell
        and `__wrapped__`).  Any other holder -- a module attribute, a nested
        container, a class, a default argument -- is a call site that would
        bypass the spans.  Returns one "function held by holder" line for
        each."""
        gc.collect()
        own = set()
        originals = {}
        for name, wrapper in self._wrappers:
            own.add(id(wrapper.__dict__))
            own.update(id(cell) for cell in wrapper.__closure__)
            originals[id(wrapper.__wrapped__)] = name
        found = []
        for holder in gc.get_referrers(*(w.__wrapped__
                                         for _, w in self._wrappers)):
            if id(holder) in own or isinstance(holder, types.FrameType):
                continue
            for obj in gc.get_referents(holder):
                name = originals.get(id(obj))
                if name is not None:
                    found.append(f"{name} held by {_describe(holder)}")
        return sorted(set(found))

    def write(self, path):
        """Dump every span as one CSV row."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,invocation\n")
            for i, (name, t0, t1, parent, inv, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{inv}\n")


def _describe(holder):
    if isinstance(holder, dict):
        for modname, mod in sys.modules.items():
            if getattr(mod, "__dict__", None) is holder:
                return f"module {modname}"
    return f"{type(holder).__name__} object"


def aggregate(spans, commands, offset=0):
    """Per-function and per-layer statistics of a list of spans.

    `spans` is a run of whole invocations cut from a tracer's log at index
    `offset`; `commands` maps invocation id to the CLI command it ran.  Self
    time is a span's duration minus the time its direct children cover
    (spans of one thread nest, so the children never overlap).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent - offset] += t1 - t0
    fn = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cmd_wall = {}
    blocks = steps = inv_bytes = write_bytes = 0
    stft_seen = set()
    stft_redundant = 0
    for i, (name, t0, t1, parent, inv, extra) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        st = fn.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "cli.main":
            cmd = commands[inv]
            cmd_wall[cmd] = cmd_wall.get(cmd, 0.0) + dur
        elif name == "spectral.inverse_transform":
            inv_bytes += extra
        elif name == "heat.solve":
            steps += extra
        elif name == "modnorm.mod_norm_from_frequency":
            blocks += extra
        elif name == "cli.write":
            write_bytes += extra
        elif name == "modnorm.mod_norm_stft":
            key = (inv, extra)
            stft_redundant += key in stft_seen
            stft_seen.add(key)
    return {"functions": fn, "layer_self": layer_self, "cmd_wall": cmd_wall,
            "blocks": blocks, "steps": steps, "inverse_bytes": inv_bytes,
            "write_bytes": write_bytes, "stft_redundant": stft_redundant}
