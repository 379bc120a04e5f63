"""Exterior and Lie calculus for polynomial holomorphic data on C^n.

Multivectors, vector fields and forms are one skew container, `_Graded`:
components from its `ring` (CPoly by default) indexed by strictly
increasing 1-based index tuples, zero components dropped.  Its constructor
is the one ring check: every component must belong to `ring`, or a
`TypeError` names the class and the ring.  A vector field is the grade-1
multivector whose class fixes its ring (CPoly for `VectorField`, RPoly for
`RealVectorField`) and which also reads as a list of `components` in
coordinate order; a bivector (`poisson.Bivector`) is a grade-2 multivector
and a Jacobiator a grade-3 one.  Grade-0 objects are plain polynomial
scalars.  Every result is one signed sum per index set, gathered as
((sign, index set), factor) or ((sign, index set), factor, factor) terms
and added once by the kernel's `_sum` in `_collect`, the one place that
handles grade 0 (the scalar at ()).  A two-factor term is a product that
the kernel convolves straight into its index set's sum, so no result builds
a product polynomial of its own.
Every operation builds its result in the ring of its operands, so apply,
divergence, Lie bracket, wedge, interior product, pairing, flat, sharp and
curl run on the real side as they do on the complex one.  `divergence`
takes a multivector (not a form) of any grade >= 1 and equals `curl` on
every grade without going through forms, and `interior_product` contracts
both ways: a multivector into a form, or a form into a multivector.

The interior-product sign convention is fixed once: for a decomposable
multivector with increasing factors, contraction starts with the lowest
index.  Under the determinant duality pairing (pairing of matching
increasing basis sets is +1) this convention satisfies
<i_A phi, B> == <phi, A wedge B>, which is what the property tests pin down.
`_contract` is the one sign rule: wedge and exterior derivative take the
sign of a merged index set from it, flat and sharp move each component to
the complement of its index set with its sign and apply one scale, and
`component` reads an index set in any order with its sign.  `_contract`
and `_merge_indices` are pure functions of small index sets, and a bounded
cache keeps each answer.  Only `divergence` counts its own parity, as an
independent route to the curl.
A result above grade n is empty and keeps its true grade.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Tuple, Union

from .poly import CPoly, RPoly, _BasePoly
from .scalars import ONE, GaussianRational

IndexSet = Tuple[int, ...]


def _check_index_set(indices: IndexSet, grade: int, n: int):
    if len(indices) != grade:
        raise ValueError(f"index set {indices} does not have grade {grade}")
    if min(indices) < 1 or max(indices) > n:
        raise ValueError(f"index set {indices} out of range 1..{n}")


@lru_cache(maxsize=4096)
def _merge_indices(left: IndexSet, right: IndexSet):
    """Sort two increasing index sets together: (sign, merged), or None on a repeat.

    The sign is `_contract`'s for taking `left` back out of the merged set.
    """
    merged = tuple(sorted(left + right))
    if len(set(merged)) < len(merged):
        return None
    return _contract(left, merged)[0], merged


@lru_cache(maxsize=4096)
def _contract(indices: IndexSet, target: IndexSet):
    """Remove each of `indices` from `target`, lowest first, each at sign (-1)^position.

    Returns (sign, remaining) or None when an index is absent.
    """
    sign = 1
    for idx in indices:
        if idx not in target:
            return None
        pos = target.index(idx)
        if pos % 2:
            sign = -sign
        target = target[:pos] + target[pos + 1:]
    return sign, target


def _check_rings(a: "_Graded", b: "_Graded") -> None:
    """Two graded operands combine only over one ring, even where no product is taken."""
    if a.ring is not b.ring:
        raise TypeError(f"ring mismatch: {a.ring.__name__} vs {b.ring.__name__}")


def _collect(kind, n: int, grade: int, ring, terms):
    """The object of `kind` whose component at each index set is the signed sum
    of its ((sign, index set), poly) and ((sign, index set), poly, poly) terms,
    added once by `ring._sum` (which convolves each product into the sum and
    skips zero factors); grade 0 and below give the scalar at ().  The signed
    index sets come from `_merge_indices` or `_contract` on checked operands,
    so they are not checked again.
    """
    groups: Dict[IndexSet, list] = {}
    for (sign, key), *factors in terms:
        groups.setdefault(key, []).append((sign, *factors))
    if grade < 1:
        return ring._sum(n, groups.get((), ()))
    return _wrap(kind, n, grade, ring, {key: ring._sum(n, group) for key, group in groups.items()})


def _wrap(kind, n: int, grade: int, ring, comps):
    """An object of `kind` holding the nonzero comps, components of checked operands."""
    out = object.__new__(kind)
    out.n, out.grade, out._ring, out.comps = n, grade, ring, {k: v for k, v in comps.items() if v}
    return out


class _Graded:
    """Shared container for multivectors and forms of grade >= 1 over `ring`.

    A grade above n is allowed and can only hold zero: every index set is
    rejected, and an operation whose result lands there returns it empty.
    A subclass may fix its ring with a class attribute `ring`, which then
    overrides the `ring` argument.
    """

    __slots__ = ("n", "grade", "comps", "_ring")

    def __init__(self, n: int, grade: int, comps: Dict[IndexSet, CPoly] | None = None, ring=CPoly):
        if grade < 1:
            raise ValueError(f"grade {grade} must be at least 1")
        self.n = n
        self.grade = grade
        self._ring = ring
        ring = self.ring
        self.comps: Dict[IndexSet, CPoly] = {}
        for indices, poly in (comps or {}).items():
            indices = tuple(indices)
            _check_index_set(indices, grade, n)
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError(f"index set {indices} is not strictly increasing")
            if not isinstance(poly, ring):
                raise TypeError(f"ring mismatch: {type(self).__name__} components must be {ring.__name__}")
            if poly.nvars != n:
                raise ValueError("component variable count differs from dimension")
            if poly:
                self.comps[indices] = poly

    @property
    def ring(self):
        """The polynomial class of the components."""
        return self._ring

    def _like(self, comps: Dict[IndexSet, CPoly]):
        """This class, dimension, grade and ring with other components, zeros dropped."""
        return _wrap(type(self), self.n, self.grade, self._ring, comps)

    def _space(self):
        return self.n, self.grade, self.ring

    def component(self, *indices) -> CPoly:
        """The component at an index set, given as one tuple or as separate indices.

        Any order reads the stored component, negated when `_contract` finds
        the order odd; a repeated index or an absent set reads as zero.  A
        wrong grade or range raises the constructor's `ValueError` (above
        grade n, where nothing is stored, the range is 1..grade).
        """
        if len(indices) == 1 and not isinstance(indices[0], int):
            indices = indices[0]
        indices = tuple(indices)
        comp = self.comps.get(indices)
        if comp is not None:
            return comp
        ordered = tuple(sorted(indices))
        comp = self.comps.get(ordered)
        if comp is None:
            _check_index_set(indices, self.grade, max(self.n, self.grade))
            return self.ring.zero(self.n)
        return comp if _contract(indices, ordered)[0] > 0 else -comp

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._space() == other._space() and self.comps == other.comps

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.grade, frozenset(self.comps.items())))

    def _plus(self, other, sign: int):
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError("can only add matching graded objects")
        terms = [((1, k), v) for k, v in self.comps.items()]
        terms += [((sign, k), v) for k, v in other.comps.items()]
        return _collect(type(self), self.n, self.grade, self._ring, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._like({k: -v for k, v in self.comps.items()})

    def scale(self, poly_or_scalar):
        if isinstance(poly_or_scalar, _BasePoly):
            return self._like({k: v * poly_or_scalar for k, v in self.comps.items()})
        factor = self.ring._coerce(poly_or_scalar)  # refused by the ring even with no component
        return self._like({k: v.scale(factor) for k, v in self.comps.items()})

    def __repr__(self):
        body = ", ".join(f"{k}: {v.format()}" for k, v in sorted(self.comps.items()))
        return f"{type(self).__name__}(n={self.n}, grade={self.grade}, {{{body}}})"


class Multivector(_Graded):
    """Skew-symmetric contravariant tensor with polynomial components."""

    __slots__ = ()

    def to_field(self) -> "VectorField":
        """The vector field of a grade-1 multivector, of the field class of its ring."""
        if self.grade != 1:
            raise ValueError("only grade-1 multivectors convert to vector fields")
        field, zero = _FIELD_OF_RING[self.ring], self.ring.zero(self.n)
        return field(self.n, [self.comps.get((i,), zero) for i in range(1, self.n + 1)])


class Form(_Graded):
    """Holomorphic differential form with polynomial components."""

    __slots__ = ()


class VectorField(Multivector):
    """Holomorphic vector field: the grade-1 multivector over the class's `ring`."""

    __slots__ = ()
    ring = CPoly

    def __init__(self, n: int, components: Iterable[CPoly]):
        components = list(components)
        if len(components) != n:
            raise ValueError(f"expected {n} components, got {len(components)}")
        super().__init__(n, 1, {(i,): comp for i, comp in enumerate(components, start=1)}, self.ring)

    @property
    def components(self) -> List[CPoly]:
        """One component per coordinate, in coordinate order, zeros included."""
        zero = self.ring.zero(self.n)
        return [self.comps.get((i,), zero) for i in range(1, self.n + 1)]

    @classmethod
    def zero(cls, n: int) -> "VectorField":
        return cls(n, [cls.ring.zero(n) for _ in range(n)])

    @classmethod
    def coordinate(cls, n: int, index: int) -> "VectorField":
        if not 1 <= index <= n:
            raise IndexError(f"coordinate index {index} out of range 1..{n}")
        return cls(n, [cls.ring.const(n, int(i == index)) for i in range(1, n + 1)])

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, [{', '.join(c.format() for c in self.components)}])"


class RealVectorField(VectorField):
    """Vector field on R^{2n} with exact rational-polynomial components."""

    __slots__ = ()
    ring = RPoly


# the vector-field class whose components live in each ring
_FIELD_OF_RING = {CPoly: VectorField, RPoly: RealVectorField}


class VolumeForm:
    """Constant-weight top form: weight * dz1 ^ ... ^ dzn with weight != 0."""

    __slots__ = ("n", "weight", "_inverse")

    def __init__(self, n: int, weight=1):
        weight = GaussianRational.coerce(weight)
        if not weight:
            raise ValueError("volume form weight must be nonzero")
        self.n = n
        self.weight = weight
        self._inverse = GaussianRational(1) / weight

    def __repr__(self):
        return f"VolumeForm(n={self.n}, weight={self.weight})"


# ---------------------------------------------------------------------------
# vector-field level operations
# ---------------------------------------------------------------------------


def _apply_terms(field: VectorField, f: CPoly, sign: int = 1) -> list:
    """The (sign, Z^i, df/dz^i) product terms of sign * Z(f), for f of the field's ring."""
    if type(f) is not field.ring:
        raise TypeError(f"ring mismatch: {field.ring.__name__} vs {type(f).__name__}")
    if f.nvars != field.n:
        raise ValueError("dimension mismatch between field and function")
    return [(sign, comp, f.diff(i)) for (i,), comp in field.comps.items()]


def apply_field(field: VectorField, f: CPoly) -> CPoly:
    """Derivative of f along the field: sum of Z^i * df/dz^i."""
    return field.ring._sum(field.n, _apply_terms(field, f))


def _multiplier_residual(field: VectorField, a: CPoly, omega: VolumeForm, sign: int = 1) -> CPoly:
    """Z(a) + sign * a * div(Z) as one signed sum: with sign 1 the last-multiplier
    residual, with sign -1 the inverse-multiplier one."""
    terms = _apply_terms(field, a)
    terms.append((sign, a, divergence(field, omega)))
    return field.ring._sum(field.n, terms)


def lie_bracket(z: VectorField, w: VectorField) -> VectorField:
    """[Z, W]: component k is Z(W^k) - W(Z^k), one signed sum of products."""
    if type(w) is not type(z) or w.n != z.n:
        raise ValueError("vector fields differ in class or dimension")
    return type(z)(z.n, [z.ring._sum(z.n, _apply_terms(z, wk) + _apply_terms(w, zk, -1))
                         for zk, wk in zip(z.components, w.components)])


def divergence(a: Multivector, omega: VolumeForm):
    """Divergence of a multivector of grade >= 1; equals `curl(a, omega)` on every grade.

    Component K is sum_l (-1)^s dA^{K+l}/dz^l, s the number of indices of K
    above l; grade 1 gives the scalar trace.  The constant weight cancels.
    """
    if not isinstance(a, Multivector):
        raise ValueError("divergence needs a multivector, not a form or a polynomial")
    if a.n != omega.n:
        raise ValueError("dimension mismatch between field and volume form")
    last = a.grade - 1
    # the last - pos indices after l in key are those of K above l
    terms = [((-1 if (last - pos) % 2 else 1, key[:pos] + key[pos + 1:]), comp.diff(l))
             for key, comp in a.comps.items() for pos, l in enumerate(key)]
    return _collect(Multivector, a.n, last, a.ring, terms)


# ---------------------------------------------------------------------------
# forms: wedge, exterior derivative, interior product
# ---------------------------------------------------------------------------

GradedOrScalar = Union[_Graded, _BasePoly]


def wedge(a: GradedOrScalar, b: GradedOrScalar):
    """Wedge product of two forms or two multivectors (scalars act by product)."""
    if isinstance(a, _BasePoly) and isinstance(b, _BasePoly):
        return a * b
    if isinstance(a, _BasePoly):
        return b.scale(a)
    if isinstance(b, _BasePoly):
        return a.scale(b)
    kind = Form if isinstance(a, Form) else Multivector
    if not isinstance(b, kind) or a.n != b.n:
        raise ValueError("wedge needs matching object kinds and dimensions")
    _check_rings(a, b)
    terms = [(merged, va, vb) for ka, va in a.comps.items() for kb, vb in b.comps.items()
             if (merged := _merge_indices(ka, kb))]
    return _collect(kind, a.n, a.grade + b.grade, a.ring, terms)


def partial_d(phi: GradedOrScalar) -> Form:
    """Holomorphic exterior derivative of a form (a polynomial counts as a 0-form)."""
    if isinstance(phi, _BasePoly):
        return Form(phi.nvars, 1, {(i,): phi.diff(i) for i in range(1, phi.nvars + 1)}, type(phi))
    if not isinstance(phi, Form):
        raise ValueError("partial_d needs a form or a polynomial, not a multivector")
    # an index already in key gives zero: skip it before differentiating
    terms = [(merged, poly.diff(i)) for key, poly in phi.comps.items()
             for i in range(1, phi.n + 1) if (merged := _merge_indices((i,), key))]
    return _collect(Form, phi.n, phi.grade + 1, phi.ring, terms)


def interior_product(a, phi):
    """Contraction of a multivector into a form, or of a form into a multivector.

    Either side may also be a polynomial.  The result has the kind of `phi`
    and grade phi.grade - a.grade; a scalar is returned at grade 0 and the
    zero scalar of the ring below grade 0.
    """
    if isinstance(a, _BasePoly):
        return a * phi if isinstance(phi, _BasePoly) else phi.scale(a)
    if isinstance(phi, _BasePoly):
        return a.ring.zero(a.n)
    if a.n != phi.n:
        raise ValueError("dimension mismatch in interior product")
    if isinstance(a, Form) == isinstance(phi, Form):
        raise ValueError("interior product needs one multivector and one form")
    _check_rings(a, phi)
    terms = [(contracted, va, vf) for ka, va in a.comps.items() for kf, vf in phi.comps.items()
             if (contracted := _contract(ka, kf))]
    kind = Form if isinstance(phi, Form) else Multivector
    return _collect(kind, a.n, phi.grade - a.grade, phi.ring, terms)


def pairing(phi: Form, a) -> CPoly:
    """Duality pairing of a form with an equal-grade multivector.

    Matching increasing basis sets pair to +1 (determinant convention); two
    forms or two multivectors raise `ValueError`, as in `interior_product`.
    """
    if isinstance(phi, _BasePoly) or isinstance(a, _BasePoly):
        if isinstance(phi, _BasePoly) and isinstance(a, _BasePoly):
            return phi * a
        raise ValueError("pairing needs equal grades and dimensions")
    if phi.grade != a.grade or phi.n != a.n:
        raise ValueError("pairing needs equal grades and dimensions")
    if isinstance(phi, Form) == isinstance(a, Form):
        raise ValueError("pairing needs one form and one multivector")
    _check_rings(phi, a)
    return phi.ring._sum(phi.n, [(1, v, a.comps[k]) for k, v in phi.comps.items() if k in a.comps])


# ---------------------------------------------------------------------------
# volume-form isomorphisms and the curl operator
# ---------------------------------------------------------------------------


def _dual(obj, kind, n: int, factor):
    """The `kind` object with each component of obj at the complement of its
    index set in (1..n), signed by `_contract` taking the set out, times factor.

    A polynomial is the grade-0 component at ().  A factor of 1 scales
    nothing, so each component moves as the object it is (or its negation).
    """
    if isinstance(obj, _BasePoly):
        comps, dim, grade, ring = {(): obj}, obj.nvars, 0, type(obj)
    elif isinstance(obj, kind):
        raise ValueError("flat lowers a multivector and sharp raises a form")
    else:
        comps, dim, grade, ring = obj.comps, obj.n, obj.grade, obj.ring
    if dim != n:
        raise ValueError("dimension mismatch with volume form")
    full = tuple(range(1, n + 1))
    terms = [(_contract(key, full), poly) for key, poly in comps.items()]
    moved = _collect(kind, n, n - grade, ring, terms)
    return moved if factor == ONE else moved.scale(factor)


def flat(a, omega: VolumeForm):
    """Lower a multivector to a form by contracting into the volume form.

    Each component moves to the complement of its index set with
    `_contract`'s sign and is scaled by the weight, in the ring of `a`.
    """
    return _dual(a, Form, omega.n, omega.weight)


def sharp(phi, omega: VolumeForm):
    """Inverse of flat: raise an (n-p)-form to a p-multivector in the ring of phi.

    The mirror of flat: each component moves back to the complement of its
    index set with `_contract`'s sign and is scaled by 1/weight, negated
    when p(n - p) is odd.
    """
    n = omega.n
    p = n - (0 if isinstance(phi, _BasePoly) else phi.grade)
    return _dual(phi, Multivector, n, -omega._inverse if p * (n - p) % 2 else omega._inverse)


def curl(a, omega: VolumeForm):
    """Volume-form curl: sharp after exterior derivative after flat.

    Grade-1 input returns the divergence as a scalar; the constant weight
    cancels between flat and sharp.
    """
    if isinstance(a, _BasePoly):
        raise ValueError("curl needs grade >= 1")
    return sharp(partial_d(flat(a, omega)), omega)


# ---------------------------------------------------------------------------
# scaled and twisted exterior derivatives
# ---------------------------------------------------------------------------


def scaled_partial_d(alpha: _BasePoly, phi: GradedOrScalar) -> Form:
    """Numerator of the alpha-scaled derivative: the exterior derivative of alpha*phi.

    The caller tests the result against zero; dividing back by alpha is never
    needed for the closedness predicates.
    """
    if alpha.is_zero():
        raise ValueError("scaling function must be nonzero")
    return partial_d(wedge(alpha, phi))


def twisted_partial_d(f: _BasePoly, k: int, phi: GradedOrScalar) -> Form:
    """Degree-weighted twisted derivative: f * d(phi) - (p - k) * df ^ phi."""
    p = 0 if isinstance(phi, _BasePoly) else phi.grade
    return partial_d(phi).scale(f) - wedge(partial_d(f), phi).scale(p - k)
