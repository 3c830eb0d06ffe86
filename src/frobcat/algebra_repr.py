"""Path algebras with admissible relations and their finite-dimensional
representations.

Conventions, fixed once and used everywhere:

* left modules, seen as quiver representations: a vector space per vertex,
  a matrix per arrow;
* column vectors: an arrow a: i -> j acts by a dims(j) x dims(i) matrix;
* paths are written source-to-target (first arrow first) and act by matrix
  products applied right-to-left, so for w = [a1, a2] the acting matrix is
  X_{a2} @ X_{a1}.

The opposite convention is obtained by transposing all matrices.
"""
from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InternalCheckError
from .exact_linalg import (Field, Matrix, RowSpan, intertwiners, prime_field, rational_field,
                           solve_in_span)

# Refused as possibly infinite-dimensional: a basis path of LENGTH_CAP
# arrows, or more than DIM_CAP basis paths.
LENGTH_CAP = 64
DIM_CAP = 4096
ENUMERATION_CAP = 6  # the largest total dimension whose submodules are enumerated


def _memo(store: dict, key, build: Callable):
    """store[key], computed by build() on the first request: the one cache
    mechanism of the per-algebra and per-context stores."""
    if key not in store:
        store[key] = build()
    return store[key]


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class _PathElt:
    """A chosen path representative in the quotient-algebra basis."""

    idx: int
    source: int
    target: int
    length: int
    path: Tuple[int, ...]  # arrow indices, application order


@dataclass(frozen=True)
class _Relation:
    terms: Tuple[Tuple[object, Tuple[int, ...]], ...]  # (coeff, path)
    source: int
    target: int
    max_len: int


class Algebra:
    """A finite-dimensional path algebra with admissible relations.

    The constructor computes a basis of the quotient algebra, as path
    representatives, and the table of right multiplication by each arrow,
    one path length at a time with one elimination per length. Every
    one-arrow extension of a basis path of the previous length gets a
    provisional id, so a relation applied after a basis path is a product
    through the table. Those products, taken in the (source, target) blocks
    that have an extension, are the rows of one ``RowSpan``: extension
    columns first in path order, then the shorter paths by id. Its pivots
    are the extensions that die, each rewritten as the negated rest of its
    row; the others survive, numbered block by block in order of first
    appearance and then in path order.

    Construction refuses relations that rewrite shorter basis paths, a
    basis path of ``LENGTH_CAP`` arrows or more than ``DIM_CAP`` basis
    paths, a radical that is not nilpotent, and regular modules that break
    a relation.
    """

    def __init__(
        self,
        field: Field,
        vertices: Sequence[str],
        arrows: Sequence,
        relations: Sequence = (),
    ):
        self.field = field
        self.vertices = [_json_name(v, f"vertex {i} in 'vertices'") for i, v in enumerate(vertices)]
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self.arrows: List[Arrow] = []
        keys = ("name", "from", "to")
        for i, a in enumerate(arrows):
            if isinstance(a, dict):
                _json_known(a, keys, "key", f"arrow {i}")
                a = [_json_key(a, key, f"arrow {i}") for key in keys]
            elif not (isinstance(a, (list, tuple)) and len(a) == 3):
                raise InputError(f"arrow {a!r} must be an object or a [name, from, to] list")
            arrow = Arrow(*(_json_name(x, f"{key!r} of arrow {i}") for key, x in zip(keys, a)))
            if arrow.source not in self._vindex or arrow.target not in self._vindex:
                raise InputError(f"arrow {arrow.name!r} references unknown vertex")
            self.arrows.append(arrow)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names) or set(names) & set(self.vertices):
            raise InputError("duplicate arrow names")
        self._aindex = {a.name: i for i, a in enumerate(self.arrows)}
        self.relations = [self._parse_relation(r, k) for k, r in enumerate(relations)]
        self._build_basis()
        self._opposite: Optional["Algebra"] = None
        self._hom_cache: Dict[tuple, Matrix] = {}
        self._module_cache: Dict[object, object] = {}
        self._check_admissible()
        self._check_regular_modules()

    # -- construction ------------------------------------------------------

    def _parse_relation(self, rel, k: int) -> _Relation:
        terms = []
        src = tgt = None
        for term in rel:
            if isinstance(term, dict):
                what, keys = f"a term of relation {k}", ("coeff", "path")
                _json_known(term, keys, "key", what)
                coeff, path_names = (_json_key(term, key, what) for key in keys)
            elif isinstance(term, (list, tuple)) and len(term) == 2:
                coeff, path_names = term
            else:
                raise InputError(f"relation {k}: term {term!r} must be an object or a pair")
            if not (isinstance(path_names, (list, tuple))
                    and all(isinstance(n, str) for n in path_names)):
                raise InputError(f"relation {k}: path must be a list of arrow names")
            coeff = _json_scalar(coeff, f"relation {k}: coefficient", self.field.coerce)
            path = tuple(self._aindex[n] for n in _json_known(path_names, self._aindex, "arrow",
                                                              f"relation {k}"))
            if len(path) < 2:
                raise InputError(f"relation {k}: path shorter than 2 is not admissible")
            for a, b in zip(path, path[1:]):
                if self.arrows[a].target != self.arrows[b].source:
                    raise InputError(f"relation {k}: path is not composable")
            s = self._vindex[self.arrows[path[0]].source]
            t = self._vindex[self.arrows[path[-1]].target]
            if src is None:
                src, tgt = s, t
            elif (s, t) != (src, tgt):
                raise InputError(f"relation {k}: terms mix source/target vertices")
            if coeff != 0:
                terms.append((coeff, path))
        if not terms:
            raise InputError(f"relation {k} is identically zero")
        return _Relation(tuple(terms), src, tgt, max(len(p) for _, p in terms))

    def _build_basis(self) -> None:
        field, one = self.field, self.field.one()
        heads = [self._vindex[a.target] for a in self.arrows]
        leaving = [[ai for ai, a in enumerate(self.arrows) if self._vindex[a.source] == vi]
                   for vi in range(len(self.vertices))]
        elts = [_PathElt(vi, vi, vi, 0, ()) for vi in range(len(self.vertices))]
        mult: Dict[Tuple[int, int], Dict[int, object]] = {}

        def times(vec: dict, path) -> dict:
            for ai in path:
                out: Dict[int, object] = {}
                for eid, cf in vec.items():
                    for tid, tcf in mult[(ai, eid)].items():
                        out[tid] = field.coerce(out.get(tid, 0) + cf * tcf)
                vec = out
            return vec

        starts = [0, len(elts)]  # the basis paths of length w are elts[starts[w]:starts[w + 1]]
        while starts[-1] > starts[-2]:
            length = len(starts) - 1
            if length > LENGTH_CAP:
                raise InputError(
                    f"path length cap {LENGTH_CAP} exceeded; "
                    "quotient may be infinite-dimensional"
                )
            # one-arrow extensions of the last length, in path order, with provisional ids
            n0 = len(elts)
            ext = sorted(((ai, b.idx) for b in elts[starts[-2]:] for ai in leaving[b.target]),
                         key=lambda ab: elts[ab[1]].path + (ab[0],))
            blocks: Dict[Tuple[int, int], List[int]] = {}
            for j, (ai, b) in enumerate(ext):
                mult[(ai, b)] = {n0 + j: one}
                blocks.setdefault((elts[b].source, heads[ai]), []).append(j)
            # each relation after each basis path it extends, in a block with an extension
            deps = [(rel, b.idx) for rel in self.relations if rel.max_len <= length
                    for b in elts[starts[length - rel.max_len]:starts[length - rel.max_len + 1]]
                    if b.target == rel.source and (b.source, rel.target) in blocks]
            width = n0 + len(ext)
            stack = Matrix.zeros(field, len(deps), width).data
            for row, (rel, b) in zip(stack, deps):
                for coeff, path in rel.terms:
                    for tid, cf in times({b: coeff}, path).items():
                        row[tid] = field.coerce(row[tid] + cf)
            # extension columns first, so column c is id (c + n0) % width; a pivot among
            # them is an extension that dies, rewritten as the negated rest of its row
            span = RowSpan(field, width)
            span.add(np.roll(stack, -n0, axis=1))
            dead = {}
            for row, p in zip(span.rows, span.pivots):
                if p >= len(ext):
                    raise InputError(
                        "relations rewrite shorter basis paths; this relation "
                        "pattern is outside naive path reduction"
                    )
                dead[p] = {(c + n0) % width: field.neg(row[c])
                           for c in range(p + 1, width) if row[c] != 0}
            renumber = {}
            for members in blocks.values():
                for j in members:
                    if j not in dead:
                        ai, b = ext[j]
                        renumber[n0 + j] = len(elts)
                        elts.append(_PathElt(len(elts), elts[b].source, heads[ai], length,
                                             elts[b].path + (ai,)))
            for j, ab in enumerate(ext):
                mult[ab] = {renumber.get(t, t): cf for t, cf in dead.get(j, {n0 + j: one}).items()}
            starts.append(len(elts))
            if len(elts) > DIM_CAP:
                raise InputError(
                    f"dimension cap {DIM_CAP} exceeded; "
                    "quotient may be infinite-dimensional"
                )
        self._elts = elts
        self._mult = mult

    def _check_admissible(self) -> None:
        """The arrow ideal of the quotient must be nilpotent.

        Right multiplication by an arrow keeps a path's source, and on the
        paths out of v it is the arrow's action on the projective P_v; the
        radical's powers therefore split over the projectives and, within one,
        over the vertices. Each round maps every vertex's layer along the
        arrows out of it; the powers only shrink, so dim P_v + 1 rounds decide.
        """
        field = self.field
        for v in self.vertices:
            proj = self.projective(v)
            # the radical of P_v: every basis path out of v but the trivial one
            start = {w: Matrix.identity(field, n).data[int(w == v):] for w, n in proj.dims.items()}
            layers = {w: rows for w, rows in start.items() if len(rows)}
            for _ in range(proj.total_dim + 1):
                images: Dict[str, list] = {}
                for arrow in self.arrows:
                    if arrow.source in layers:
                        images.setdefault(arrow.target, []).append(field.matmul(
                            layers[arrow.source], proj.action[arrow.name].data.T))
                layers = {}
                for w, stack in images.items():
                    span = RowSpan(field, proj.dims[w])
                    if span.add(np.vstack(stack)):
                        layers[w] = span.rows
                if not layers:
                    break
            else:
                raise InputError("relations do not generate an admissible ideal (radical not nilpotent)")

    def _check_regular_modules(self) -> None:
        """Completeness guard: the regular modules built from the computed
        multiplication tables must satisfy every relation.

        When this holds, the constructed algebra is a quotient of the true
        quotient algebra of at least its dimension, hence equal to it; a
        failure means the relation system needs rewriting beyond naive path
        reduction and is rejected."""
        for v in self.vertices:
            bad = relation_violations(self.projective(v))
            if bad:
                raise InputError(
                    "relation closure incomplete on the regular module at "
                    f"vertex {v!r} ({'; '.join(bad)}); this relation pattern "
                    "is outside naive path reduction"
                )

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._elts)

    def opposite(self) -> "Algebra":
        """The opposite algebra (arrows and relation paths reversed)."""
        if self._opposite is None:
            op = Algebra(
                self.field,
                self.vertices,
                [(a.name, a.target, a.source) for a in self.arrows],
                [
                    [(self.field.format(c), tuple(reversed([self.arrows[i].name for i in p])))
                     for c, p in r.terms]
                    for r in self.relations
                ],
            )
            op._opposite = self
            self._opposite = op
        return self._opposite

    # -- distinguished modules -------------------------------------------------

    def simple(self, v: str) -> "Module":
        return _memo(self._module_cache, f"S:{v}", lambda: Module(
            self, {w: int(w == v) for w in self.vertices}, {}))

    def projective(self, v: str) -> "Module":
        """The indecomposable projective at v: path representatives out of v."""
        return _memo(self._module_cache, f"P:{v}", lambda: self._build_projective(v))

    def _build_projective(self, v: str) -> "Module":
        vi = self._vindex[v]
        grp: Dict[int, List[int]] = {w: [] for w in range(len(self.vertices))}
        for e in self._elts:  # the paths out of v, grouped by target in basis order
            if e.source == vi:
                grp[e.target].append(e.idx)
        pos = {eid: k for w in grp for k, eid in enumerate(grp[w])}
        dims = {self.vertices[w]: len(grp[w]) for w in grp}
        action = {}
        for ai, arrow in enumerate(self.arrows):
            si, ti = self._vindex[arrow.source], self._vindex[arrow.target]
            m = Matrix.zeros(self.field, len(grp[ti]), len(grp[si]))
            for col, eid in enumerate(grp[si]):
                for tid, cf in self._mult[(ai, eid)].items():
                    m.data[pos[tid], col] = cf
            action[arrow.name] = m
        return Module(self, dims, action)

    def injective(self, v: str) -> "Module":
        """The indecomposable injective at v, dual of the opposite projective."""
        return _memo(self._module_cache, f"I:{v}",
                     lambda: dual_module(self.opposite().projective(v)))

    def simples(self) -> List["Module"]:
        return [self.simple(v) for v in self.vertices]

    def projectives(self) -> List["Module"]:
        return [self.projective(v) for v in self.vertices]

    def injectives(self) -> List["Module"]:
        return [self.injective(v) for v in self.vertices]

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": (
                {"kind": "prime", "p": self.field.characteristic}
                if self.field.kind == "prime"
                else {"kind": "rational"}
            ),
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in self.arrows],
            "relations": [
                [
                    {"coeff": self.field.format(c), "path": [self.arrows[i].name for i in p]}
                    for c, p in r.terms
                ]
                for r in self.relations
            ],
        }

    def __repr__(self):
        return f"Algebra({len(self.vertices)} vertices, {len(self.arrows)} arrows, dim {self.dim})"


# the exponent of a decimal such as "1e5000", as Fraction's string parser reads it
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _json_scalar(x, what: str, parse):
    """parse(x) for a string or an integer read from a JSON file. Anything
    else, such as 1.5 or true, is refused rather than truncated to an int,
    and so is a rational with a zero denominator, such as "1/0", or with a
    numerator or denominator of more digits than Python converts to a string
    (``sys.get_int_max_str_digits()``, 0 for no limit), such as "1e5000".

    An exponent e with |e| > limit + len(x) is refused before parsing, so no
    power of ten is built: a nonzero mantissa of n digits, d after the point,
    times 10^e has at least e - d + 1 digits for e > 0, and for e < 0 a
    denominator in lowest terms above 10^(|e| - n). A zero mantissa with
    such an exponent is refused too."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"{what} must be an integer or a string, got {x!r}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    exponent = _EXPONENT.search(x) if limit and isinstance(x, str) else None
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        bound = limit + len(x)
        if len(digits) > len(str(bound)) or int(digits or 0) > bound:
            raise InputError(f"{what}: {x!r} has more than {limit} digits")
    try:
        value = parse(x)
    except ValueError as e:
        raise InputError(f"{what}: {e}") from e
    except ZeroDivisionError as e:
        raise InputError(f"{what}: {x!r} has a zero denominator") from e
    if limit:
        # 10^limit has more than 3 * limit bits, so shorter values pass unpowered
        big = max(abs(value.numerator), value.denominator)
        if big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise InputError(f"{what}: {x!r} has more than {limit} digits")
    return value


def _json_name(x, what: str) -> str:
    """x when it is a name, which is a JSON string; a number, list or object
    is refused rather than matched against names or hashed."""
    if not isinstance(x, str):
        raise InputError(f"{what} must be a string, got {x!r}")
    return x


def _json_typed(x, kind: type, what: str):
    """x when it is a JSON object (kind dict) or list (kind list), as the
    file's shape requires; any other JSON value is refused."""
    if not isinstance(x, kind):
        raise InputError(f"{what} must be a JSON {'object' if kind is dict else 'list'}, "
                         f"got {type(x).__name__}")
    return x


def _json_key(d: Mapping, key: str, what: str):
    """d[key] from a JSON object; a missing key is refused, naming it."""
    if key not in d:
        raise InputError(f"missing key {key!r} in {what}")
    return d[key]


def _json_known(names, known, noun: str, what: str):
    """names (the keys of a JSON object, or a list) when each is a known
    vertex, arrow or key; the first unknown one is refused rather than
    dropped, so a misspelt name cannot load as a different object."""
    for name in names:
        if name not in known:
            raise InputError(f"unknown {noun} {name!r} in {what}")
    return names


def algebra_from_dict(d: Mapping) -> Algebra:
    d = _json_known(_json_typed(d, dict, "the algebra"),
                    ("field", "vertices", "arrows", "relations"), "key", "the algebra")
    fd = _json_known(_json_typed(_json_key(d, "field", "the algebra"), dict, "field"),
                     ("kind", "p"), "key", "field")
    kind = _json_key(fd, "kind", "field")
    if kind == "prime":
        field = prime_field(_json_scalar(_json_key(fd, "p", "field"), "field characteristic p",
                                         int))
    elif kind == "rational":
        field = rational_field()
    else:
        raise InputError(f"unknown field kind {kind!r}")
    relations = _json_typed(d.get("relations", []), list, "relations")
    for k, rel in enumerate(relations):
        _json_typed(rel, list, f"relation {k}")
    return Algebra(field, _json_typed(_json_key(d, "vertices", "the algebra"), list, "vertices"),
                   _json_typed(_json_key(d, "arrows", "the algebra"), list, "arrows"), relations)


def preprojective(n: int, field: Field) -> Algebra:
    """The preprojective algebra of the linearly oriented A_n quiver.

    The double quiver carries arrows a_i: i -> i+1 and a_i*: i+1 -> i; the
    defining sum of commutators is emitted as one relation per vertex.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    for i in range(1, n):
        arrows.append((f"a{i}", str(i), str(i + 1)))
        arrows.append((f"a{i}*", str(i + 1), str(i)))
    relations = []
    one, minus = field.format(field.one()), field.format(field.neg(field.one()))
    for v in range(1, n + 1):
        terms = []
        if v < n:
            terms.append({"coeff": one, "path": [f"a{v}", f"a{v}*"]})
        if v > 1:
            terms.append({"coeff": minus, "path": [f"a{v-1}*", f"a{v-1}"]})
        if terms:
            relations.append(terms)
    return Algebra(field, vertices, arrows, relations)


class Module:
    """A finite-dimensional representation: dims per vertex, matrix per arrow.

    Construction checks shapes only; :meth:`from_dict` also checks relations.

    ``parts`` is the tuple of summands when :func:`sum_module` built the
    module from two or more, else None. It is a hint for solving hom spaces
    and never enters ``key``, equality or ``to_dict``.
    """

    __slots__ = ("algebra", "dims", "action", "parts", "_key")

    def __init__(self, algebra: Algebra, dims: Mapping[str, int], action: Mapping[str, Matrix]):
        self.algebra = algebra
        self.dims = {}
        for v in algebra.vertices:
            d = int(dims.get(v, 0))
            if d < 0:
                raise InputError(f"negative dimension at vertex {v!r}")
            self.dims[v] = d
        self.action = {}
        for a in algebra.arrows:
            m = action.get(a.name)
            if m is None:
                m = Matrix.zeros(algebra.field, self.dims[a.target], self.dims[a.source])
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise InputError(
                    f"arrow {a.name!r} matrix is {m.rows}x{m.cols}, "
                    f"expected {self.dims[a.target]}x{self.dims[a.source]}"
                )
            self.action[a.name] = m
        self.parts: Optional[Tuple["Module", ...]] = None
        self._key = None

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (
                tuple(self.dims[v] for v in self.algebra.vertices),
                tuple(self.action[a.name].signature() for a in self.algebra.arrows),
            )
        return self._key

    def dims_tuple(self) -> Tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def to_dict(self) -> dict:
        return {
            "dims": dict(self.dims),
            "action": {a.name: self.action[a.name].format_entries() for a in self.algebra.arrows},
        }

    @staticmethod
    def from_dict(algebra: Algebra, d: Mapping) -> "Module":
        d = _json_known(_json_typed(d, dict, "a module"), ("dims", "action"), "key", "the module")
        given_dims = _json_typed(_json_key(d, "dims", "the module"), dict, "dims")
        dims = {v: _json_scalar(n, f"dim at vertex {v}", int)
                for v, n in _json_known(given_dims, algebra._vindex, "vertex", "dims").items()}
        given = _json_known(_json_typed(d.get("action", {}), dict, "action"), algebra._aindex,
                            "arrow", "action")
        action = {}
        for a in algebra.arrows:
            if a.name in given:
                action[a.name] = Matrix.from_entries(
                    algebra.field,
                    dims.get(a.target, 0),
                    dims.get(a.source, 0),
                    [_json_scalar(s, f"action of {a.name}", algebra.field.coerce)
                     for s in _json_typed(given[a.name], list, f"action of {a.name}")],
                )
        module = Module(algebra, dims, action)
        bad = relation_violations(module)
        if bad:
            raise InputError("module violates relations: " + "; ".join(bad))
        return module

    def __repr__(self):
        return f"Module(dims={self.dims_tuple()})"


def zero_module(algebra: Algebra) -> Module:
    return Module(algebra, {}, {})


def path_matrix(module: Module, path: Sequence[int]) -> Matrix:
    """The matrix by which a path (arrow indices, application order) acts."""
    alg = module.algebra
    if not path:
        raise InputError("path_matrix needs a nonempty path")
    m = module.action[alg.arrows[path[0]].name]
    for ai in path[1:]:
        m = module.action[alg.arrows[ai].name] @ m
    return m


def relation_violations(module: Module) -> List[str]:
    alg = module.algebra
    bad = []
    for k, rel in enumerate(alg.relations):
        src_v = alg.vertices[rel.source]
        tgt_v = alg.vertices[rel.target]
        total = Matrix.zeros(alg.field, module.dims[tgt_v], module.dims[src_v])
        for coeff, path in rel.terms:
            total = total + path_matrix(module, path).scale(coeff)
        if not total.is_zero():
            bad.append(f"relation {k} at vertex {src_v}")
    return bad


def dual_module(m: Module) -> Module:
    """Vector-space dual, a module over the opposite algebra."""
    op = m.algebra.opposite()
    action = {a.name: m.action[a.name].transpose() for a in m.algebra.arrows}
    return Module(op, dict(m.dims), action)


class Morphism:
    """A vertex-indexed family of matrices intertwining two representations:
    :meth:`from_dict` checks that it does; construction checks shapes only."""

    __slots__ = ("source", "target", "comps", "_key")

    def __init__(self, source: Module, target: Module, comps: Mapping[str, Matrix]):
        if source.algebra is not target.algebra:
            raise InputError("source and target live over different algebras")
        self.source = source
        self.target = target
        alg = source.algebra
        self.comps = {}
        for v in alg.vertices:
            c = comps.get(v)
            if c is None:
                c = Matrix.zeros(alg.field, target.dims[v], source.dims[v])
            if (c.rows, c.cols) != (target.dims[v], source.dims[v]):
                raise InputError(
                    f"component at {v!r} is {c.rows}x{c.cols}, "
                    f"expected {target.dims[v]}x{source.dims[v]}"
                )
            self.comps[v] = c
        self._key = None

    @property
    def key(self) -> tuple:
        """Content key, as ``Module.key`` is: the source and target keys, then
        the bytes of :meth:`vec`, or the strings of its entries for object
        dtype (Q, large p). The ends' dims fix the row's layout, and the key
        is exact, with no hash or digest, so equal keys mean equal maps
        between equal modules."""
        if self._key is None:
            row = self.vec()
            body = row.tobytes() if row.dtype == np.int64 else tuple(str(e) for e in row)
            self._key = (self.source.key, self.target.key, body)
        return self._key

    def intertwines(self) -> bool:
        for a in self.source.algebra.arrows:
            lhs = self.comps[a.target] @ self.source.action[a.name]
            rhs = self.target.action[a.name] @ self.comps[a.source]
            if lhs != rhs:
                return False
        return True

    @staticmethod
    def identity(x: Module) -> "Morphism":
        field = x.algebra.field
        return Morphism(x, x, {v: Matrix.identity(field, x.dims[v]) for v in x.algebra.vertices})

    @staticmethod
    def zero(source: Module, target: Module) -> "Morphism":
        return Morphism(source, target, {})

    @staticmethod
    def hstack(maps: Sequence["Morphism"]) -> "Morphism":
        """(f_1 … f_n): the sum of the sources -> their common target."""
        return _stack(maps, along_source=True)

    @staticmethod
    def vstack(maps: Sequence["Morphism"]) -> "Morphism":
        """(f_1; …; f_n): the common source -> the sum of the targets."""
        return _stack(maps, along_source=False)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self after other."""
        if other.target.key != self.source.key:
            raise InputError("morphisms are not composable")
        comps = {v: self.comps[v] @ other.comps[v] for v in self.source.algebra.vertices}
        return Morphism(other.source, self.target, comps)

    def _check_parallel(self, other: "Morphism") -> None:
        if other.source.key != self.source.key or other.target.key != self.target.key:
            raise InputError("morphisms must be parallel")

    def __add__(self, other: "Morphism") -> "Morphism":
        self._check_parallel(other)
        comps = {v: self.comps[v] + other.comps[v] for v in self.source.algebra.vertices}
        return Morphism(self.source, self.target, comps)

    def __sub__(self, other: "Morphism") -> "Morphism":
        self._check_parallel(other)
        comps = {v: self.comps[v] - other.comps[v] for v in self.source.algebra.vertices}
        return Morphism(self.source, self.target, comps)

    def __neg__(self) -> "Morphism":
        return Morphism(self.source, self.target,
                        {v: -self.comps[v] for v in self.source.algebra.vertices})

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target,
                        {v: self.comps[v].scale(c) for v in self.source.algebra.vertices})

    def is_zero(self) -> bool:
        return all(self.comps[v].is_zero() for v in self.source.algebra.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source.key == other.source.key
            and self.target.key == other.target.key
            and all(self.comps[v] == other.comps[v] for v in self.source.algebra.vertices)
        )

    def vec(self) -> np.ndarray:
        """The components as one hom row (:func:`_flatten`)."""
        field = self.source.algebra.field
        return _flatten(field, 1, [self.comps[v].data for v in self.source.algebra.vertices])[0]

    @staticmethod
    def from_vec(source: Module, target: Module, v: np.ndarray) -> "Morphism":
        field = source.algebra.field
        return Morphism(source, target,
                        {vertex: Matrix(field, field.reduce(np.array(block[0], dtype=field.dtype)))
                         for vertex, block in _blocks(v[None], source, target)})

    def to_dict(self, source_name: str, target_name: str) -> dict:
        return {
            "source": source_name,
            "target": target_name,
            "comps": {v: self.comps[v].format_entries() for v in self.source.algebra.vertices},
        }

    @staticmethod
    def from_dict(d: Mapping, source: Module, target: Module) -> "Morphism":
        alg = source.algebra
        _json_known(d, ("source", "target", "comps"), "key", "the morphism")
        given = _json_known(_json_typed(d.get("comps", {}), dict, "comps"), alg._vindex,
                            "vertex", "comps")
        comps = {}
        for v in alg.vertices:
            if v in given:
                comps[v] = Matrix.from_entries(
                    alg.field, target.dims[v], source.dims[v],
                    [_json_scalar(s, f"component at vertex {v}", alg.field.coerce)
                     for s in _json_typed(given[v], list, f"component at vertex {v}")],
                )
        f = Morphism(source, target, comps)
        if not f.intertwines():
            raise InputError("components do not intertwine the arrow actions")
        return f

    def __repr__(self):
        return f"Morphism({self.source.dims_tuple()} -> {self.target.dims_tuple()})"


def _stack(maps: Sequence[Morphism], along_source: bool) -> Morphism:
    """The block map of :meth:`Morphism.hstack` (along_source) or
    :meth:`Morphism.vstack`; the sum is built by :func:`sum_module`."""
    if not maps:
        raise InputError("a block map needs at least one block")
    shared = [f.target if along_source else f.source for f in maps]
    if any(m.key != shared[0].key for m in shared):
        raise InputError("the blocks need a common " + ("target" if along_source else "source"))
    total = sum_module([f.source if along_source else f.target for f in maps])
    stack = Matrix.hstack if along_source else Matrix.vstack
    comps = {v: stack([f.comps[v] for f in maps]) for v in total.algebra.vertices}
    if along_source:
        return Morphism(total, shared[0], comps)
    return Morphism(shared[0], total, comps)


# -- hom spaces ----------------------------------------------------------------


def hom_matrix(x: Module, y: Module) -> Matrix:
    """Deterministic basis of Hom(x, y), solving the intertwiner equations.

    The basis elements are the rows of a k x width matrix in ``Morphism.vec()``
    coordinates. Cached per algebra by module content, so structurally equal
    modules share one computation. A sum (``parts`` set at the source, else at
    the target) is assembled from its parts' cached bases by
    :func:`_hom_of_sum`; other pairs are solved by ``intertwiners``.
    """
    return _memo(x.algebra._hom_cache, (x.key, y.key), lambda: _solve_hom(x, y))


def _solve_hom(x: Module, y: Module) -> Matrix:
    if x.parts is not None or y.parts is not None:
        return _hom_of_sum(x, y)
    alg = x.algebra
    return intertwiners(
        alg.field, x.dims_tuple(), y.dims_tuple(),
        [(alg._vindex[a.source], alg._vindex[a.target], x.action[a.name].data,
          y.action[a.name].data) for a in alg.arrows])


def _hom_of_sum(x: Module, y: Module) -> Matrix:
    """Hom(x, y) from the cached bases of Hom(part, y) for the parts of x, or
    of Hom(x, part) for the parts of y, each row scattered into the sum's
    coordinates: per vertex, the part's column block (at the source) or row
    block (at the target).

    The intertwiner system of a sum decouples into its parts' systems on
    disjoint unknowns, so its free columns are the union of theirs. The
    kernel vector of a free column c is 1 at c and zero to the right of c,
    so ordering the scattered rows by their last nonzero entry gives exactly
    the basis of the whole system.
    """
    at_source = x.parts is not None
    field = x.algebra.field
    width = hom_width(x, y)
    coords = np.arange(width)
    grids = [(v, grid[0]) for v, grid in _blocks(coords[None], x, y)]
    offsets = dict.fromkeys(x.algebra.vertices, 0)
    pieces = []
    for part in x.parts if at_source else y.parts:
        index = []
        for v, grid in grids:
            end = offsets[v] + part.dims[v]
            index.append((grid[:, offsets[v] : end] if at_source else grid[offsets[v] : end])
                         .reshape(-1))
            offsets[v] = end
        pieces.append((hom_matrix(part, y) if at_source else hom_matrix(x, part),
                       np.concatenate(index)))
    out = Matrix.zeros(field, sum(basis.rows for basis, _ in pieces), width).data
    top = 0
    for basis, index in pieces:
        out[top : top + basis.rows, index] = basis.data
        top += basis.rows
    last = np.where(out != 0, coords, -1).max(axis=1, initial=-1)
    return Matrix(field, out[np.argsort(last)])


def hom_basis(x: Module, y: Module) -> List[Morphism]:
    """The rows of :func:`hom_matrix` as morphisms, in the same order."""
    return [Morphism.from_vec(x, y, v) for v in hom_matrix(x, y).data]


def combine(x: Module, y: Module, coeffs: Sequence) -> Morphism:
    """The combination sum_k coeffs[k] * hom_basis(x, y)[k]."""
    basis = hom_matrix(x, y)
    if not basis.rows:
        return Morphism.zero(x, y)
    coeffs = np.asarray(coeffs, dtype=x.algebra.field.dtype)
    return Morphism.from_vec(x, y, x.algebra.field.matmul(coeffs, basis.data))


def hom_dim(x: Module, y: Module) -> int:
    """dim Hom(x, y). For a sum (``parts`` set at the source, else at the
    target) it is the sum over the parts, as Hom(⊕x_i, y) = ⊕Hom(x_i, y) and
    Hom(x, ⊕y_j) = ⊕Hom(x, y_j): the sum's basis is neither assembled nor
    cached. Other pairs read the rows of :func:`hom_matrix`."""
    if x.parts is not None:
        return sum(hom_dim(part, y) for part in x.parts)
    if y.parts is not None:
        return sum(hom_dim(x, part) for part in y.parts)
    return hom_matrix(x, y).rows


def hom_width(x: Module, y: Module) -> int:
    """The length of ``Morphism.vec()`` for maps x -> y."""
    return sum(x.dims[v] * y.dims[v] for v in x.algebra.vertices)


def _blocks(rows: np.ndarray, x: Module, y: Module):
    """Per vertex, the k x dims_y x dims_x stack of the rows' components.

    The one reader of the hom-row layout, whose one writer is
    :func:`_flatten`: the components in vertex order, each row-major."""
    k, off = rows.shape[0], 0
    for v in x.algebra.vertices:
        r, c = y.dims[v], x.dims[v]
        yield v, rows[:, off : off + r * c].reshape(k, r, c)
        off += r * c


def _flatten(field: Field, k: int, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """k rows joining the row-major flattened blocks (k x rows x cols, or
    rows x cols for k = 1); explicit sizes, since reshape(k, -1) is
    ambiguous for k = 0. One row (``Morphism.vec``, ``Morphism.key``) is
    one join of flat views, the cheaper call."""
    if not blocks:
        return np.empty((k, 0), dtype=field.dtype)
    if k == 1:
        return np.concatenate([b.reshape(-1) for b in blocks])[None]
    return np.concatenate([b.reshape(k, b.shape[-2] * b.shape[-1]) for b in blocks], axis=1)


def compose_basis(rows: np.ndarray, x: Module, y: Module, left: Optional[Morphism] = None,
                  right: Optional[Morphism] = None) -> np.ndarray:
    """The rows vec(left ∘ b ∘ right), for b running over the rows of a k x width
    matrix in Hom(x, y) coordinates (such as ``hom_matrix(x, y).data``).

    One batched ``Field.matmul`` per vertex block and side.
    """
    field = x.algebra.field
    out = []
    for v, block in _blocks(rows, x, y):
        if left is not None:
            block = field.matmul(left.comps[v].data, block)
        if right is not None:
            block = field.matmul(block, right.comps[v].data)
        out.append(block)
    return _flatten(field, rows.shape[0], out)


def compose_pairs(a_rows: np.ndarray, x: Module, z: Module, b_rows: np.ndarray,
                  y: Module) -> np.ndarray:
    """The rows vec(b ∘ a) for a over the rows of a Hom(x, z) matrix (outer)
    and b over the rows of a Hom(z, y) matrix (inner): row i * len(b_rows) + j
    is b_j ∘ a_i."""
    field = x.algebra.field
    b_blocks = dict(_blocks(b_rows, z, y))
    out = [field.matmul(b_blocks[v][None, :], a[:, None])
           for v, a in _blocks(a_rows, x, z)]
    return _flatten(field, a_rows.shape[0] * b_rows.shape[0], out)


# -- kernels, cokernels, sums ----------------------------------------------------


def kernel(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertexwise kernel with induced arrow action and its inclusion. Each
    column of a ``Matrix.kernel`` basis K_t is 1 at its free row and zero
    below it, so the action A with K_t A = X_a K_s is X_a K_s on those rows."""
    alg = f.source.algebra
    field = alg.field
    bases = {v: f.comps[v].kernel() for v in alg.vertices}
    dims = {v: bases[v].cols for v in alg.vertices}
    free = {v: [int(np.flatnonzero(col)[-1]) for col in k.data.T] for v, k in bases.items()}
    action = {}
    for a in alg.arrows:
        img = f.source.action[a.name] @ bases[a.source]
        sol = Matrix(field, img.data[free[a.target]])
        if bases[a.target] @ sol != img:
            raise InternalCheckError("kernel is not arrow-stable")
        action[a.name] = sol
    k = Module(alg, dims, action)
    inc = Morphism(k, f.source, dict(bases))
    return k, inc


def cokernel(f: Morphism) -> Tuple[Module, Morphism]:
    """Vertexwise cokernel with induced arrow action and its projection.

    At each vertex the rref of [f_v | 1] is E [f_v | 1] for an invertible E.
    Its pivot columns are an image basis among the columns of f_v, then the
    standard vectors completing it; the rows of E below rank f_v kill the
    image and are the identity on those standard vectors, so they are the
    projection q_v, and the cokernel's basis is the completing vectors.
    """
    alg = f.source.algebra
    field = alg.field
    quots, complements = {}, {}
    for v in alg.vertices:
        fv = f.comps[v]
        red, pivots, _ = Matrix.hstack([fv, Matrix.identity(field, fv.rows)]).rref()
        rank = sum(c < fv.cols for c in pivots)
        q = Matrix(field, red.data[rank:, fv.cols :].copy())
        if not (q @ fv).is_zero():
            raise InternalCheckError("cokernel projection does not kill the image")
        quots[v] = q
        complements[v] = [c - fv.cols for c in pivots[rank:]]
    action = {}
    for a in alg.arrows:  # q_t Y_a on the cokernel's basis at the source
        cols = f.target.action[a.name].data[:, complements[a.source]]
        action[a.name] = quots[a.target] @ Matrix(field, cols)
    c = Module(alg, {v: len(complements[v]) for v in alg.vertices}, action)
    return c, Morphism(f.target, c, quots)


def cokernel_factor(proj: Morphism, g: Morphism) -> Morphism:
    """The unique h with h @ proj = g, for proj a projection built by
    :func:`cokernel` and g vanishing on the image.

    Each row of proj_v leads with a 1 in the column of its cokernel basis
    vector, and no other row is nonzero there, so h_v is g_v on those columns.
    """
    field = proj.source.algebra.field
    comps = {}
    for v, q in proj.comps.items():
        leads = [int(np.flatnonzero(row)[0]) for row in q.data]
        comps[v] = Matrix(field, g.comps[v].data[:, leads])
    h = Morphism(proj.target, g.target, comps)
    if h @ proj != g:
        raise InputError("morphism does not factor through the cokernel")
    return h


def sum_module(parts: Sequence[Module], algebra: Optional[Algebra] = None) -> Module:
    """The block-diagonal sum of parts, in their order: the one block layout
    of a sum, shared by :func:`direct_sum` and by the block maps of
    :meth:`Morphism.hstack` and :meth:`Morphism.vstack`.

    An empty list yields the zero module, for which the algebra is required,
    and a one-part sum is the part itself (modules are immutable by
    convention). A sum of two or more records them as its ``parts`` and is
    cached per algebra by the ordered tuple of part keys (the order fixes
    the block layout): a hit returns the one module built first, whose
    ``parts`` may be other instances with the same keys.
    """
    if not parts:
        if algebra is None:
            raise InputError("the sum of an empty list needs the algebra argument")
        return zero_module(algebra)
    if len(parts) == 1:
        return parts[0]
    return _memo(parts[0].algebra._module_cache, ("sum", tuple(p.key for p in parts)),
                 lambda: _build_sum(parts))


def _build_sum(parts: Sequence[Module]) -> Module:
    alg = parts[0].algebra
    dims = {v: sum(p.dims[v] for p in parts) for v in alg.vertices}
    action = {a.name: Matrix.block_diag(alg.field, [p.action[a.name] for p in parts])
              for a in alg.arrows}
    total = Module(alg, dims, action)
    total.parts = tuple(parts)
    return total


def direct_sum(parts: Sequence[Module],
               algebra: Optional[Algebra] = None) -> Tuple[Module, List[Morphism], List[Morphism]]:
    """:func:`sum_module` with its canonical injections and projections: the
    column and the row blocks of its identity."""
    ident = Morphism.identity(sum_module(parts, algebra))
    return (ident.source, _split(ident, parts, at_source=True),
            _split(ident, parts, at_source=False))


def _split(f: Morphism, parts: Sequence[Module], at_source: bool) -> List[Morphism]:
    """The blocks of f along the sum of parts: at its source, the column
    blocks part -> f.target; at its target, the row blocks f.source -> part."""
    field = f.source.algebra.field
    offsets = dict.fromkeys(f.source.algebra.vertices, 0)
    out = []
    for part in parts:
        comps = {}
        for v, off in offsets.items():
            end = off + part.dims[v]
            data = f.comps[v].data
            comps[v] = Matrix(field, (data[:, off:end] if at_source else data[off:end]).copy())
            offsets[v] = end
        out.append(Morphism(part, f.target, comps) if at_source
                   else Morphism(f.source, part, comps))
    return out


def pushout(f: Morphism, g: Morphism) -> Tuple[Module, Morphism, Morphism]:
    """Pushout of f: A -> B along g: A -> C.

    Returns (D, B -> D, C -> D), computed as the cokernel of (f; -g): A -> B ⊕ C,
    whose column blocks are the two legs.
    """
    if f.source.key != g.source.key:
        raise InputError("pushout needs a common source")
    d, proj = cokernel(Morphism.vstack([f, -g]))
    return (d, *_split(proj, [f.target, g.target], at_source=True))


def pullback(f: Morphism, g: Morphism) -> Tuple[Module, Morphism, Morphism]:
    """Pullback of f: B -> A along g: C -> A.

    Returns (E, E -> B, E -> C), computed as the kernel of (f -g): B ⊕ C -> A,
    whose row blocks are the two legs.
    """
    if f.target.key != g.target.key:
        raise InputError("pullback needs a common target")
    e, inc = kernel(Morphism.hstack([f, -g]))
    return (e, *_split(inc, [f.source, g.source], at_source=False))


def is_mono(f: Morphism) -> bool:
    return all(f.comps[v].rank() == f.source.dims[v] for v in f.source.algebra.vertices)


def is_epi(f: Morphism) -> bool:
    return all(f.comps[v].rank() == f.target.dims[v] for v in f.source.algebra.vertices)


def is_iso(f: Morphism) -> bool:
    return is_mono(f) and is_epi(f) and all(
        f.source.dims[v] == f.target.dims[v] for v in f.source.algebra.vertices
    )


# -- short exact sequences -------------------------------------------------------


@dataclass(frozen=True)
class ShortExactSequence:
    """A composable pair (inflation, deflation) with exactness witnesses."""

    i: Morphism
    p: Morphism

    def validate(self) -> "ShortExactSequence":
        if self.i.target.key != self.p.source.key:
            raise InputError("inflation and deflation are not composable")
        if not is_mono(self.i):
            raise InputError("first map is not an inflation (not mono)")
        if not is_epi(self.p):
            raise InputError("second map is not a deflation (not epi)")
        if not (self.p @ self.i).is_zero():
            raise InputError("composite p @ i is nonzero")
        for v in self.i.source.algebra.vertices:
            if self.i.comps[v].rank() + self.p.comps[v].rank() != self.i.target.dims[v]:
                raise InputError(f"sequence not exact at vertex {v!r}")
        return self

    @property
    def sub(self) -> Module:
        return self.i.source

    @property
    def middle(self) -> Module:
        return self.i.target


# -- submodule enumeration ---------------------------------------------------------


def _subspaces(field: Field, dim: int):
    """All subspaces of F_p^dim as column-basis matrices, RREF-enumerated."""
    p = field.characteristic
    for r in range(dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free_slots = [
                (i, j)
                for i in range(r)
                for j in range(pivots[i] + 1, dim)
                if j not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_slots)):
                rows = Matrix.zeros(field, r, dim)
                for i in range(r):
                    rows.data[i, pivots[i]] = field.one()
                for (i, j), val in zip(free_slots, values):
                    rows.data[i, j] = val
                yield rows.transpose()


def enumerate_submodules(x: Module) -> List[Tuple[Module, Morphism]]:
    """All arrow-stable families of vertex subspaces, exact and finite.

    Restricted to prime fields and small total dimension: the only intended
    consumer is fixture discovery for rigid-candidate searches.
    """
    alg = x.algebra
    field = alg.field
    if field.kind != "prime":
        raise InputError("submodule enumeration requires a prime field")
    if x.total_dim > ENUMERATION_CAP:
        raise InputError(
            f"total dimension {x.total_dim} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    per_vertex = {v: list(_subspaces(field, x.dims[v])) for v in alg.vertices}
    results = []
    for combo in itertools.product(*(per_vertex[v] for v in alg.vertices)):
        family = dict(zip(alg.vertices, combo))
        action = {}
        for a in alg.arrows:  # stable iff every arrow's system is solvable; keep the solutions
            image = x.action[a.name] @ family[a.source]
            sol = solve_in_span(field, family[a.target].data.T, image.data.T)
            if sol is None:
                break
            action[a.name] = Matrix(field, sol).transpose()
        else:
            sub = Module(alg, {v: family[v].cols for v in alg.vertices}, action)
            results.append((sub, Morphism(sub, x, family)))
    return results
