"""Per-layer tracing of permcodes from outside the package.

``Tracer.install`` replaces the public functions of the permcodes layers with
timing wrappers at every name a caller binds them to: module globals such as
``permcodes.verify.descent_composition``, the ``encode`` field of each code
family, and the arithmetic methods of ``IndexPolynomial``.  Nothing under
``src/`` changes; ``restore`` puts every original back.

Coarse boundaries (each check, ``class_distribution``, each ribbon route,
``identity_block_shuffle``) record a span with a parent link.  The
high-frequency leaves (``descent_composition``, ``inv``/``maj``/``des``,
``sorted_code``, the ``IndexPolynomial`` operations) record only an aggregated
call count and time, because there are about 20M such calls at n = 8.

Self time: every wrapper adds its duration to ``Tracer.inner``, which each
enclosing wrapper resets on entry, so an operation's self time is its duration
minus the time of the wrapped calls inside it.  Time spent in functions that
are not wrapped (``inverse``, ``IndexPolynomial.monomial``, ...) counts as
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import time
from contextlib import contextmanager

LAYERS = ('permutations', 'codes', 'polynomials', 'ribbons', 'verify')

_clock = time.perf_counter


def _assign(obj, attr: str, value) -> None:
    # Code families are frozen dataclasses; classes need type.__setattr__.
    if isinstance(obj, type):
        setattr(obj, attr, value)
    else:
        object.__setattr__(obj, attr, value)


class Op:
    """Aggregated calls of one traced operation."""

    __slots__ = ('layer', 'leaf', 'calls', 'total', 'self_s')

    def __init__(self, layer: str, leaf: bool):
        self.layer = layer
        self.leaf = leaf
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0

    def self_time(self) -> float:
        return self.total if self.leaf else self.self_s


class Tracer:
    """Spans, aggregated operations and counters of one traced pass."""

    def __init__(self):
        self.inner = 0.0
        self.ops: dict[str, Op] = {}
        self.counts: dict[str, int] = {}
        #: (id, parent id or None, name, start, end), in order of opening.
        self.spans: list[tuple] = []
        self._open: list[int | None] = [None]
        self._perm_counters: list[itertools.count] = []
        self._restore: list[tuple] = []

    def op(self, name: str, layer: str, leaf: bool = False) -> Op:
        if name not in self.ops:
            self.ops[name] = Op(layer, leaf)
        return self.ops[name]

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, layer: str):
        """Time the body as one call of ``name`` and record it as a span."""
        op = self.op(name, layer)
        saved, self.inner = self.inner, 0.0
        sid = len(self.spans)
        parent = self._open[-1]
        self.spans.append(None)
        self._open.append(sid)
        start = _clock()
        try:
            yield
        finally:
            elapsed = _clock() - start
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, start + elapsed)
            op.calls += 1
            op.total += elapsed
            op.self_s += elapsed - self.inner
            self.inner = saved + elapsed

    # -- wrappers -----------------------------------------------------------

    def _leaf(self, fn, name: str, layer: str, before=None):
        """Wrapper for a function that calls no other wrapped function."""
        op = self.op(name, layer, leaf=True)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if before is not None:
                before(args)
            start = _clock()
            result = fn(*args)
            elapsed = _clock() - start
            tracer.inner += elapsed
            op.calls += 1
            op.total += elapsed
            return result

        return wrapper

    def _nested(self, fn, name: str, layer: str, after=None, span=False):
        """Wrapper for a function whose callees may be wrapped too."""
        op = self.op(name, layer)
        tracer = self

        if span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name, layer):
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved, tracer.inner = tracer.inner, 0.0
            start = _clock()
            result = fn(*args, **kwargs)
            elapsed = _clock() - start
            op.calls += 1
            op.total += elapsed
            op.self_s += elapsed - tracer.inner
            tracer.inner = saved + elapsed
            return result

        return wrapper

    def _counted_perms(self, fn):
        """``iter_permutations`` that counts what it yields, in C: ``zip``
        advances the counter only after the permutation iterator yields."""
        counters = self._perm_counters
        first = operator.itemgetter(0)

        @functools.wraps(fn)
        def wrapper(n):
            counter = itertools.count()
            counters.append(counter)
            return map(first, zip(fn(n), counter))

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        _assign(obj, attr, value)

    def _rebind(self, fn, wrapper) -> None:
        """Replace ``fn`` at every module global of permcodes bound to it."""
        for name, module in list(sys.modules.items()):
            if name != 'permcodes' and not name.startswith('permcodes.'):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        import permcodes.cli  # noqa: F401  (binds every module)
        from permcodes import codes, permutations, polynomials, ribbons, verify

        P = permutations
        self._rebind(P.descent_composition, self._leaf(
            P.descent_composition, 'permutations.descent_composition',
            'permutations'))
        for stat in (P.inv, P.maj, P.des):
            self._rebind(stat, self._leaf(stat, 'permutations.stats', 'permutations'))
        self._rebind(P.iter_permutations, self._counted_perms(P.iter_permutations))
        self._rebind(P.identity_block_shuffle, self._nested(
            P.identity_block_shuffle, 'permutations.identity_block_shuffle',
            'permutations', span=True,
            after=lambda args, result: self.count(
                'permutations.identity_block_shuffle.perms', len(result))))

        # maj_code calls maj, so the encoders are nested, not leaves.
        for family in codes.FAMILIES.values():
            original = family.encode
            wrapper = self._nested(original, f'codes.encode.{family.name}', 'codes')
            self._rebind(original, wrapper)
            self._set(family, 'encode', wrapper)
        self._rebind(codes.sorted_code, self._leaf(
            codes.sorted_code, 'codes.sorted_code', 'codes'))

        poly = polynomials.IndexPolynomial

        def terms_in(args):
            self.count('polynomials.add.terms_in',
                       len(args[0].terms) + len(args[1].terms))

        def term_pairs(args):
            other = args[1]
            self.count('polynomials.mul.term_pairs', len(args[0].terms) * (
                len(other.terms) if isinstance(other, poly) else 1))

        for method in ('__add__', '__sub__'):
            self._set(poly, method, self._leaf(
                getattr(poly, method), 'polynomials.add', 'polynomials', terms_in))
        self._set(poly, '__mul__', self._leaf(
            poly.__mul__, 'polynomials.mul', 'polynomials', term_pairs))
        self._set(poly, '__eq__', self._leaf(poly.__eq__, 'polynomials.eq', 'polynomials'))

        def leibniz(args, result):
            # Computed from the composition, not observed: the Leibniz
            # expansion walks r! permutations, 2^(r-1) of them nonzero.
            r = len(args[0])
            if r:
                self.count('ribbons.determinant.leibniz_walked', math.factorial(r))
                self.count('ribbons.determinant.leibniz_nonzero', 2 ** (r - 1))

        self._rebind(ribbons.ribbon_flagged, self._nested(
            ribbons.ribbon_flagged, 'ribbons.flagged', 'ribbons', span=True,
            after=lambda args, result: self.count('ribbons.flagged.terms',
                                                  len(result.terms))))
        self._rebind(ribbons.ribbon_determinant, self._nested(
            ribbons.ribbon_determinant, 'ribbons.determinant', 'ribbons',
            span=True, after=leibniz))
        self._rebind(ribbons.h_product, self._nested(
            ribbons.h_product, 'ribbons.h_product', 'ribbons'))

        self._rebind(verify.class_distribution, self._nested(
            verify.class_distribution, 'verify.class_distribution', 'verify',
            span=True))

    def restore(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._restore:
            _assign(*self._restore.pop())

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and total seconds of every operation, the counters, and the
        self time of every layer.  Call once, after the pass: reading the
        permutation counters advances them."""
        out: dict[str, float] = {}
        for name, op in self.ops.items():
            out[f'{name}.calls'] = op.calls
            out[f'{name}.s'] = op.total
        out.update(self.counts)
        out['permutations.iter_permutations.perms'] = sum(
            next(counter) for counter in self._perm_counters)
        out['codes.encode.s'] = sum(
            op.total for name, op in self.ops.items()
            if name.startswith('codes.encode.'))
        for layer in LAYERS:
            out[f'{layer}.self_s'] = self.layer_self(layer)
        out['trace.spans'] = len(self.spans)
        return out

    def layer_self(self, layer: str) -> float:
        return sum(op.self_time() for op in self.ops.values() if op.layer == layer)

    def self_times(self) -> list[tuple[str, float]]:
        """Operations by descending self time."""
        return sorted(((name, op.self_time()) for name, op in self.ops.items()),
                      key=lambda item: -item[1])
