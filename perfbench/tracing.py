"""Outside-in span tracing for the benchmark's traced run.

The package is never edited: the tracer replaces a public function on
its module with a wrapper that records a span (layer name, start, end,
parent span, whether it raised) and then restores the original.  Calls
made through the module attribute, including the package's own calls
between modules, pass through the wrapper.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations


def layer_name(module, attr: str) -> str:
    """'<module>.<attr>' with the package prefix dropped, e.g. 'ekf.update'."""
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # returns ns; spans are timed with it
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # one tuple per call: (name index, start ns, end ns, parent span or -1, raised)
        self.spans: list[tuple[int, int, int, int, bool] | None] = []
        self._stack = [-1]
        self._patches = []
        self.active = False

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, module, attr: str, name: str | None = None, on_return=None) -> None:
        """Replace module.attr with a span-recording wrapper.

        name defaults to '<module>.<attr>'; two patch sites may share a
        name when one module imports the other's function directly.
        on_return(args, kwargs, result) runs after a traced call returns.
        """
        fn = getattr(module, attr)
        idx = self._name_index(name or layer_name(module, attr))
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (idx, t0, t1, parent, raised)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def restore(self) -> None:
        self.active = False
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time in ms (span duration minus the
        part covered by its direct children) and calls that raised."""
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        stats = {n: {"calls": 0, "self_ms": 0.0, "errors": 0} for n in self.names}
        for i, (idx, t0, t1, _, raised) in enumerate(self.spans):
            s = stats[self.names[idx]]
            s["calls"] += 1
            s["self_ms"] += (t1 - t0 - child_ns[i]) / 1e6
            s["errors"] += int(raised)
        return stats

    def write(self, path) -> None:
        """One CSV row per span; root is the outermost span of the same
        call from the benchmark, shared by every span that call caused."""
        roots: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,root,name,start_ns,end_ns,parent,raised\n")
            for i, (idx, t0, t1, parent, raised) in enumerate(self.spans):
                # a parent's slot is taken before its children's
                roots.append(i if parent < 0 else roots[parent])
                fh.write(f"{i},{roots[i]},{self.names[idx]},{t0},{t1},{parent},{int(raised)}\n")
