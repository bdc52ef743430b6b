"""Child entry point for the traced passes: runs one `ioscope` CLI
invocation with every public function of every `ioscope` module wrapped
in a span.

    python trace_child.py OUT.json {spans,memory} -- <ioscope arguments>

Nothing under `src/` changes: the wrappers replace the module attributes
after import, also where one module imported another's function by name
(`cli` from `series`, `fractal` from `wavelet`), so calls between modules
go through them. Spans are kept in memory with their parent links and
written to OUT.json when the invocation ends, whatever its exit status.

In `memory` mode tracemalloc runs during the CLI's `main`, and each span
also records the peak traced memory above what was allocated when it
started (a separate pass, because tracemalloc slows allocation).
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

MODULES = ("cli", "series", "correlation", "spectral", "wavelet", "templates",
           "fractal", "agentsim", "netimpact", "rankfuse")


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.names: list = []
        self.spans: list = []  # [parent, name index, start, end(, peak bytes)]
        self.stack: list = []
        self.child_peaks: list = []  # highest peak seen below each open span

    def wrap(self, name: str, fn):
        key = len(self.names)
        self.names.append(name)
        spans, stack, memory = self.spans, self.stack, self.memory
        child_peaks = self.child_peaks
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if memory:
                base, peak = tracemalloc.get_traced_memory()
                if child_peaks:
                    child_peaks[-1] = max(child_peaks[-1], peak)
                tracemalloc.reset_peak()
                child_peaks.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if memory:
                    peak = max(tracemalloc.get_traced_memory()[1], child_peaks.pop())
                    if child_peaks:
                        child_peaks[-1] = max(child_peaks[-1], peak)
                    spans[sid] = [parent, key, t0, t1, peak - base]
                else:
                    spans[sid] = [parent, key, t0, t1]

        return wrapper

    def instrument(self) -> None:
        mods = {m: importlib.import_module(f"ioscope.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def main() -> int:
    out_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter()
    import ioscope.cli
    t1 = time.perf_counter()
    tracer = Tracer(memory=(mode == "memory"))
    tracer.instrument()
    t2 = time.perf_counter()
    if tracer.memory:
        tracemalloc.start()
    try:
        return ioscope.cli.main(argv)
    finally:
        tracemalloc.stop()
        t3 = time.perf_counter()
        head = {"script_start": T_START, "import": [t0, t1],
                "instrument_s": t2 - t1, "names": tracer.names}
        with open(out_path, "w") as fh:
            fh.write(json.dumps(head) + "\n")
            fh.write(json.dumps(tracer.spans) + "\n")
            t4 = time.perf_counter()
            fh.write(json.dumps({"dump_s": t4 - t3, "dump_end": t4}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
