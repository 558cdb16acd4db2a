"""Call counts and self time of every public rep3 function.

LayerTrace wraps each public function of each loaded rep3 module at
every module attribute that binds it (rep3.harness.solve3 as well as
rep3.solver.solve3), so calls made through any import path are seen.
Nothing under src/ is edited; remove() puts the originals back.

A span's self time is its wall time minus the time of the wrapped calls
it made.  A generator function counts one call when it is created, and
each resumption of the generator is timed as a span of its own, so the
work it does between yields lands on it and not on its consumer.
Spans are kept in memory only, as running totals per function.
"""

import functools
import inspect
import sys
from time import perf_counter


class LayerTrace:
    def __init__(self):
        self.stats = {}  # "module.function" -> [calls, self seconds]
        self._stack = [0.0]  # time of finished child spans, per open span
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("rep3.")]
        wrappers = {}
        for mod in modules:
            for attr, fn in vars(mod).items():
                public = not attr.startswith("_")
                if inspect.isfunction(fn) and public and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{mod.__name__[len('rep3.'):]}.{attr}")
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    setattr(mod, attr, wrappers[fn])
                    self._patched.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in self._patched:
            setattr(mod, attr, fn)
        self._patched.clear()

    def _close(self, rec, start) -> None:
        elapsed = perf_counter() - start
        children = self._stack.pop()
        rec[1] += elapsed - children
        self._stack[-1] += elapsed

    def _wrap(self, fn, key):
        rec = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            def resumed(gen):
                while True:
                    stack.append(0.0)
                    start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec, start)
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec[0] += 1
                return resumed(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec[0] += 1
                stack.append(0.0)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(rec, start)

        return wrapper
