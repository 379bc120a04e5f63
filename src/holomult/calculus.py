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
scalars: operations that land in grade 0 return the scalar directly.
Every operation builds its result in the ring of its operands, so apply,
divergence, Lie bracket, wedge, interior product, pairing, flat, sharp and
curl run on the real side as they do on the complex one.  `divergence`
takes any grade >= 1 and equals `curl` on every grade without going through
forms, and `interior_product` contracts both ways: a multivector into a
form, or a form into a multivector.

The interior-product sign convention is fixed once: for a decomposable
multivector with increasing factors, contraction starts with the lowest
index.  Under the determinant duality pairing (pairing of matching
increasing basis sets is +1) this convention satisfies
<i_A phi, B> == <phi, A wedge B>, which is what the property tests pin down.
`_contract` is the one sign rule: wedge and exterior derivative take the
sign of a merged index set from it, sharp is the contraction into the top
multivector, and `component` reads an index set in any order with its
sign.  Only `divergence` counts its own parity, as an independent route to
the curl.  A result above grade n is empty and keeps its true grade.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from .poly import CPoly, RPoly, _BasePoly
from .scalars import GaussianRational

IndexSet = Tuple[int, ...]


def _check_index_set(indices: IndexSet, grade: int, n: int):
    if len(indices) != grade:
        raise ValueError(f"index set {indices} does not have grade {grade}")
    if min(indices) < 1 or max(indices) > n:
        raise ValueError(f"index set {indices} out of range 1..{n}")
    if grade > 1 and any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"index set {indices} is not strictly increasing")


def _merge_indices(left: IndexSet, right: IndexSet):
    """Sort two increasing index sets together: (sign, merged), or None on a repeat.

    The sign is `_contract`'s for taking `left` back out of the merged set.
    """
    merged = tuple(sorted(left + right))
    if len(set(merged)) < len(merged):
        return None
    return _contract(left, merged)[0], merged


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


def _accumulate(out: Dict[IndexSet, CPoly], key: IndexSet, value: CPoly) -> None:
    """Add value to out[key], dropping the key when the sum is zero."""
    total = out[key] + value if key in out else value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


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
        """An object of this class, dimension, grade and ring with other components.

        The components come from checked operands, so only zeros are dropped.
        """
        out = object.__new__(type(self))
        out.n, out.grade, out._ring = self.n, self.grade, self._ring
        out.comps = {k: v for k, v in comps.items() if v}
        return out

    def _space(self):
        return self.n, self.grade, self.ring

    def component(self, *indices) -> CPoly:
        """The component at an index set, given as one tuple or as separate indices.

        Any order reads the stored component, negated when `_contract` finds
        the order odd; a repeated index or an absent set reads as zero.
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

    def __add__(self, other):
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError("can only add matching graded objects")
        out = dict(self.comps)
        for k, v in other.comps.items():
            _accumulate(out, k, v)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -v for k, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly_or_scalar):
        factor = poly_or_scalar
        if not isinstance(factor, _BasePoly):
            factor = self.ring.const(self.n, factor)
        return self._like({k: v * factor for k, v in self.comps.items()})

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
        field = _FIELD_OF_RING[self.ring]
        return field(self.n, [self.component((i,)) for i in range(1, self.n + 1)])


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

    __slots__ = ("n", "weight")

    def __init__(self, n: int, weight=1):
        weight = GaussianRational.coerce(weight)
        if not weight:
            raise ValueError("volume form weight must be nonzero")
        self.n = n
        self.weight = weight

    def __repr__(self):
        return f"VolumeForm(n={self.n}, weight={self.weight})"


# ---------------------------------------------------------------------------
# vector-field level operations
# ---------------------------------------------------------------------------


def apply_field(field: VectorField, f: CPoly) -> CPoly:
    """Derivative of f along the field: sum of Z^i * df/dz^i."""
    if f.nvars != field.n:
        raise ValueError("dimension mismatch between field and function")
    out = field.ring.zero(field.n)
    for i, comp in enumerate(field.components, start=1):
        if comp:
            out = out + comp * f.diff(i)
    return out


def lie_bracket(z: VectorField, w: VectorField) -> VectorField:
    """[Z, W]: component k is Z(W^k) - W(Z^k)."""
    if type(w) is not type(z) or w.n != z.n:
        raise ValueError("vector fields differ in class or dimension")
    return type(z)(z.n, [apply_field(z, wk) - apply_field(w, zk)
                         for zk, wk in zip(z.components, w.components)])


def divergence(a: Multivector, omega: VolumeForm):
    """Divergence of a multivector of grade >= 1; equals `curl(a, omega)` on every grade.

    Component K is sum_l (-1)^s dA^{K+l}/dz^l, s the number of indices of K
    above l; grade 1 gives the scalar trace.  The constant weight cancels.
    """
    if a.n != omega.n:
        raise ValueError("dimension mismatch between field and volume form")
    out: Dict[IndexSet, CPoly] = {}  # grade 0 lands under the key ()
    last = a.grade - 1
    for key, comp in a.comps.items():
        for pos, l in enumerate(key):
            d = comp.diff(l)
            if d:
                # the last - pos indices after l in key are those of K above l
                _accumulate(out, key[:pos] + key[pos + 1:], -d if (last - pos) % 2 else d)
    if a.grade == 1:
        return out.get((), a.ring.zero(a.n))
    return Multivector(a.n, a.grade - 1, out, a.ring)


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
    out: Dict[IndexSet, CPoly] = {}
    for ka, va in a.comps.items():
        for kb, vb in b.comps.items():
            merged = _merge_indices(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            _accumulate(out, key, va * vb if sign > 0 else -(va * vb))
    return kind(a.n, a.grade + b.grade, out, a.ring)


def partial_d(phi: GradedOrScalar) -> Form:
    """Holomorphic exterior derivative of a form (a polynomial counts as a 0-form)."""
    if isinstance(phi, _BasePoly):
        nv = phi.nvars
        return Form(nv, 1, {(i,): phi.diff(i) for i in range(1, nv + 1)}, type(phi))
    out: Dict[IndexSet, CPoly] = {}
    for key, poly in phi.comps.items():
        for i in range(1, phi.n + 1):
            # an index already in key gives zero: skip it before differentiating
            merged = _merge_indices((i,), key)
            if merged is None:
                continue
            d = poly.diff(i)
            if d:
                sign, newkey = merged
                _accumulate(out, newkey, d if sign > 0 else -d)
    return Form(phi.n, phi.grade + 1, out, phi.ring)


def interior_product(a, phi):
    """Contraction of a multivector into a form, or of a form into a multivector.

    Either side may also be a polynomial.  The result has the kind of `phi`
    and grade phi.grade - a.grade; a scalar is returned at grade 0 and the
    zero scalar of the ring below grade 0.
    """
    if isinstance(a, _BasePoly):
        if isinstance(phi, _BasePoly):
            return a * phi
        return phi.scale(a)
    if isinstance(phi, _BasePoly):
        return a.ring.zero(a.n)
    if a.n != phi.n:
        raise ValueError("dimension mismatch in interior product")
    if isinstance(a, Form) == isinstance(phi, Form):
        raise ValueError("interior product needs one multivector and one form")
    _check_rings(a, phi)
    if a.grade > phi.grade:
        return phi.ring.zero(a.n)
    result_grade = phi.grade - a.grade
    out: Dict[IndexSet, CPoly] = {}  # grade 0 lands under the key ()
    for ka, va in a.comps.items():
        for kf, vf in phi.comps.items():
            contracted = _contract(ka, kf)
            if contracted is not None:
                sign, rest = contracted
                _accumulate(out, rest, va * vf if sign > 0 else -(va * vf))
    if result_grade == 0:
        return out.get((), phi.ring.zero(a.n))
    kind = Form if isinstance(phi, Form) else Multivector
    return kind(a.n, result_grade, out, phi.ring)


def pairing(phi: Form, a) -> CPoly:
    """Duality pairing of a form with an equal-grade multivector.

    Matching increasing basis sets pair to +1 (determinant convention).
    """
    if isinstance(phi, _BasePoly) or isinstance(a, _BasePoly):
        if isinstance(phi, _BasePoly) and isinstance(a, _BasePoly):
            return phi * a
        raise ValueError("pairing needs equal grades and dimensions")
    if phi.grade != a.grade or phi.n != a.n:
        raise ValueError("pairing needs equal grades and dimensions")
    _check_rings(phi, a)
    out = phi.ring.zero(phi.n)
    for key, poly in phi.comps.items():
        other = a.comps.get(key)
        if other is not None:
            out = out + poly * other
    return out


# ---------------------------------------------------------------------------
# volume-form isomorphisms and the curl operator
# ---------------------------------------------------------------------------


def flat(a, omega: VolumeForm):
    """Lower a multivector to a form by contracting into the volume form.

    The volume form is built in the ring of `a`.
    """
    n = omega.n
    ring = type(a) if isinstance(a, _BasePoly) else a.ring
    top = Form(n, n, {tuple(range(1, n + 1)): ring.const(n, omega.weight)}, ring)
    if isinstance(a, _BasePoly):
        return top.scale(a)
    if a.n != n:
        raise ValueError("dimension mismatch with volume form")
    return interior_product(a, top)


def sharp(phi, omega: VolumeForm):
    """Inverse of flat: raise an (n-p)-form to a p-multivector in the ring of phi.

    The mirror of flat: phi is contracted into the top multivector of weight
    1/weight, and the result negated when p(n - p) is odd.
    """
    n = omega.n
    ring = type(phi) if isinstance(phi, _BasePoly) else phi.ring
    inv_weight = ring.const(n, GaussianRational(1) / omega.weight)
    top = Multivector(n, n, {tuple(range(1, n + 1)): inv_weight}, ring)
    if isinstance(phi, _BasePoly):
        return top.scale(phi)
    if phi.n != n:
        raise ValueError("dimension mismatch with volume form")
    raised = interior_product(phi, top)
    p = n - phi.grade
    return -raised if p * (n - p) % 2 else raised


def curl(a, omega: VolumeForm):
    """Volume-form curl: sharp after exterior derivative after flat.

    Grade-1 input returns the divergence as a scalar; the constant weight
    cancels between flat and sharp.
    """
    if isinstance(a, _BasePoly):
        raise ValueError("curl needs grade >= 1")
    lowered = flat(a, omega)
    return sharp(partial_d(lowered), omega)


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
