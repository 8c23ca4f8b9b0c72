"""Per-layer tracing for the traced benchmark run.

Wrappers are installed around the public functions of each diracmech
module only while a traced pass runs, and removed afterwards; nothing
under ``src/`` is modified.  A wrapper replaces every binding of the
original function object in every loaded ``diracmech`` module, so calls
made through ``from .numcore import grad`` style imports are seen too.

Each wrapped call is a span.  Its self time is its duration minus the
time covered by the wrapped calls it made (its child spans), and is
added to the span's layer group.  Spans are aggregated as they close
(self time per group, call count per function) rather than stored one
by one, so a traced pass of a few hundred thousand calls stays small.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, function names, layer group).  A group is the prefix of the
# per-layer metric names it feeds: "<group>.self_s".
LAYERS = (
    ("numcore", ("grad",), "numcore.grad"),
    ("numcore", ("hessian_block",), "numcore.hessian_block"),
    ("numcore", ("solve_linear", "mat_inverse"), "numcore.linalg"),
    ("numcore", ("newton_solve",), "numcore.newton_solve"),
    ("exprparse", ("parse_text",), "exprparse.parse_text"),
    ("exprparse", ("eval_expr",), "exprparse.eval_expr"),
    ("systems", ("build",), "systems.build"),
    ("dirac", ("solve_consistency",), "dirac.solve_consistency"),
    ("dirac", ("complete_state", "reduced_vector_field", "consistency_residual"), "dirac.field"),
    ("dirac", ("oracle_mechanical", "oracle_magnetic"), "dirac.oracle"),
    ("dirac", ("make_element", "pairing", "pairing_scale"), "dirac.isotropy"),
    ("algebroid", None, "algebroid"),
    ("frame", None, "frame"),
    ("integrate", ("simulate",), "integrate.simulate"),
    ("checks", None, "checks"),
    ("cli", ("cmd_simulate",), "cli.cmd_simulate"),
)

# Recursive functions whose inner calls are not separate spans.
TOP_LEVEL_ONLY = frozenset({"exprparse.eval_expr"})

GROUPS = tuple(group for _, _, group in LAYERS)


def _public_functions(module):
    """Module-level functions a module defines and exports (or, for
    ``checks``, its ``check_*`` entry points)."""
    names = list(getattr(module, "__all__", ()))
    names += [n for n in vars(module) if n.startswith("check_")]
    return tuple(
        n
        for n in dict.fromkeys(names)
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    )


class Tracer:
    """Self time per layer group, call counts per function, and Newton
    iterations per solve, for one traced pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.newton_iters = []
        self._stack = []
        self._active = set()
        self._patched = []

    def _wrap(self, fn, qualname, group):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        top_only = qualname in TOP_LEVEL_ONLY
        active = self._active

        def timed(*args, **kwargs):
            if top_only:
                if qualname in active:
                    return fn(*args, **kwargs)
                active.add(qualname)
            calls[qualname] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[group] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if top_only:
                    active.discard(qualname)

        if qualname == "numcore.newton_solve":
            iters = self.newton_iters

            def newton(residual_map, x0, *args, **kwargs):
                evaluations = [0]

                def counted(x):
                    evaluations[0] += 1
                    return residual_map(x)

                try:
                    return timed(counted, x0, *args, **kwargs)
                finally:
                    # the last residual evaluation only confirms convergence
                    iters.append(evaluations[0] - 1)

            return newton
        return timed

    def install(self):
        """Replace every binding of each traced function in the loaded
        diracmech modules; ``uninstall`` restores them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "diracmech" or n.startswith("diracmech.")]
        for short, names, group in LAYERS:
            module = sys.modules[f"diracmech.{short}"]
            for name in names or _public_functions(module):
                original = getattr(module, name)
                wrapper = self._wrap(original, f"{short}.{name}", group)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._stack:
            raise RuntimeError("unbalanced spans after a traced pass")

    def counts(self) -> dict:
        """Exact counts of this pass, for cross-run comparison."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "newton_iters": list(self.newton_iters),
        }
