"""Independent checks of the program's outputs, in plain Python and sympy.

Nothing here calls the program's evaluators.  Identity tables are read as
plain data (the ``presentation`` envelope format); structure constants are
read from the envelopes the program writes.
"""

from __future__ import annotations

from fractions import Fraction


class Mismatch(Exception):
    """An output that disagrees with the independent computation."""


def tpoly(coeffs, t: Fraction) -> Fraction:
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + Fraction(c)
    return value


def resolve(presentation: dict, name: str) -> list[tuple[list[str], str]]:
    """An operation name as a list of (t-polynomial, generator) parts."""
    if name in presentation["composites"]:
        return [(poly, gen) for poly, gen in presentation["composites"][name]]
    if name in presentation["generators"]:
        return [(["1"], name)]
    raise Mismatch(f"unknown operation {name!r}")


# -- degree-3 dimension -----------------------------------------------------


def dim3(presentation: dict, t: Fraction) -> int:
    """2 g^2 minus the exact rank of the relation matrix, by sympy over QQ."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.sdm import SDM

    gens = presentation["generators"]
    g = len(gens)
    col = {name: i for i, name in enumerate(gens)}
    rows = {}
    for r, relation in enumerate(presentation["relations"]):
        row: dict[int, Fraction] = {}
        for terms, sign, offset in ((relation["lhs"], 1, 0), (relation["rhs"], -1, g * g)):
            for coeff, inner, outer in terms:
                c0 = sign * tpoly(coeff, t)
                for pi, gi in resolve(presentation, inner):
                    for po, go in resolve(presentation, outer):
                        key = offset + col[go] * g + col[gi]
                        row[key] = row.get(key, 0) + c0 * tpoly(pi, t) * tpoly(po, t)
        row = {k: QQ(v.numerator, v.denominator) for k, v in row.items() if v}
        if row:
            rows[r] = row
    shape = (len(presentation["relations"]), 2 * g * g)
    return 2 * g * g - DomainMatrix.from_rep(SDM(rows, shape, QQ)).rank()


# -- quadratic identities on an operations envelope -------------------------


class Structure:
    """Sparse structure constants of an operations envelope.

    ``table(name)[(i, j)]`` is ``{k: c}``, the value of op(e_i, e_j);
    composite operations are combined from the generators at the
    envelope's t.
    """

    def __init__(self, envelope: dict, presentation: dict):
        self.presentation = presentation
        self.t = Fraction(envelope["t"])
        self.dim = envelope["dim"]
        self.ops = {}
        for name, items in envelope["ops"].items():
            table: dict[tuple[int, int], dict[int, Fraction]] = {}
            for i, j, k, c in items:
                value = Fraction(c)
                if value:
                    table.setdefault((i, j), {})[k] = value
            self.ops[name] = table
        self._tables: dict[str, dict] = {}

    def table(self, name: str) -> dict:
        if name not in self._tables:
            out: dict[tuple[int, int], dict[int, Fraction]] = {}
            for poly, gen in resolve(self.presentation, name):
                scale = tpoly(poly, self.t)
                for key, vec in self.ops[gen].items():
                    bucket = out.setdefault(key, {})
                    for k, c in vec.items():
                        bucket[k] = bucket.get(k, 0) + scale * c
            self._tables[name] = out
        return self._tables[name]

    def _apply(self, name: str, left: dict[int, Fraction], right: dict[int, Fraction]):
        table = self.table(name)
        out: dict[int, Fraction] = {}
        for a, ca in left.items():
            for b, cb in right.items():
                for k, c in table.get((a, b), {}).items():
                    out[k] = out.get(k, 0) + ca * cb * c
        return out

    def relation(self, name: str) -> dict:
        for relation in self.presentation["relations"]:
            if relation["name"] == name:
                return relation
        raise Mismatch(f"no relation named {name!r}")

    def sides(self, relation: dict, x: int, y: int, z: int):
        """(lhs, rhs) of one identity at basis triple (x, y, z), zeros dropped.

        The left side sums coeff * outer(inner(x, y), z), the right side
        coeff * outer(x, inner(y, z)).
        """
        ex, ey, ez = {x: Fraction(1)}, {y: Fraction(1)}, {z: Fraction(1)}
        out = []
        for terms, left_nested in ((relation["lhs"], True), (relation["rhs"], False)):
            total: dict[int, Fraction] = {}
            for coeff, inner, outer in terms:
                value = tpoly(coeff, self.t)
                if left_nested:
                    part = self._apply(outer, self._apply(inner, ex, ey), ez)
                else:
                    part = self._apply(outer, ex, self._apply(inner, ey, ez))
                for k, c in part.items():
                    total[k] = total.get(k, 0) + value * c
            out.append({k: c for k, c in total.items() if c})
        return out[0], out[1]

    def failing_relation(self, triples) -> tuple[str, tuple[int, int, int]] | None:
        for x, y, z in triples:
            for relation in self.presentation["relations"]:
                lhs, rhs = self.sides(relation, x, y, z)
                if lhs != rhs:
                    return relation["name"], (x, y, z)
        return None


def perturb(envelope: dict, presentation: dict, rng) -> dict:
    """Change one seeded structure constant so that some identity fails.

    The failure is certified here, at a basis triple that reads the changed
    entry, before the program sees the envelope.
    """
    for _ in range(50):
        name = rng.choice(sorted(envelope["ops"]))
        items = envelope["ops"][name]
        if not items:
            continue
        pos = rng.randrange(len(items))
        i, j, k, c = items[pos]
        value = Fraction(c) + rng.choice((-3, -2, -1, 1, 2, 3))
        bad_items = list(items)
        bad_items[pos] = [i, j, k, str(value)]
        bad = dict(envelope, ops=dict(envelope["ops"], **{name: bad_items}))
        n = envelope["dim"]
        triples = [(i, j, z) for z in range(n)] + [(x, i, j) for x in range(n)]
        if Structure(bad, presentation).failing_relation(triples) is not None:
            return bad
    raise Mismatch("no perturbation that breaks an identity was found")


def check_identity_witness(envelope: dict, presentation: dict, witness: dict) -> None:
    """A reported identity failure must be a real counterexample."""
    relation_name = witness["context"].split(":", 1)[1]
    x, y, z = witness["args"]
    structure = Structure(envelope, presentation)
    lhs, rhs = structure.sides(structure.relation(relation_name), x, y, z)
    if lhs == rhs:
        raise Mismatch(f"{witness['context']} holds at {(x, y, z)}")
    for side, mine in (("lhs", lhs), ("rhs", rhs)):
        reported = {int(k): Fraction(v) for k, v in witness[side].items()}
        reported = {k: v for k, v in reported.items() if v}
        if reported != mine:
            raise Mismatch(f"{witness['context']} at {(x, y, z)}: {side} reads {reported}, is {mine}")


def check_identities_hold(envelope: dict, presentation: dict, triples) -> None:
    found = Structure(envelope, presentation).failing_relation(triples)
    if found is not None:
        raise Mismatch(f"{found[0]} fails at {found[1]} on an envelope that passed")


# -- Baxter identity on a finite-dimensional algebra ------------------------

Vector = dict[int, Fraction]


def _combine(*parts: tuple[Fraction, Vector]) -> Vector:
    out: Vector = {}
    for scale, vec in parts:
        for k, c in vec.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


class Baxter:
    """An algebra envelope and an operator envelope, as sparse maps."""

    def __init__(self, algebra: dict, operator: dict):
        self.dim = algebra["dim"]
        self.mult: dict[tuple[int, int], Vector] = {}
        for a, b, k, c in algebra["mult"]:
            self.mult.setdefault((a, b), {})[k] = Fraction(c)
        self.columns: list[Vector] = [{} for _ in range(self.dim)]
        for r, row in enumerate(operator["matrix"]):
            for c, value in enumerate(row):
                if Fraction(value):
                    self.columns[c][r] = Fraction(value)

    def times(self, x: Vector, y: Vector) -> Vector:
        return _combine(*(
            (ca * cb, self.mult.get((a, b), {})) for a, ca in x.items() for b, cb in y.items()
        ))

    def op(self, x: Vector) -> Vector:
        return _combine(*((c, self.columns[a]) for a, c in x.items()))

    def sides(self, t: Fraction, i: int, j: int) -> tuple[list[Fraction], list[Fraction]]:
        """R(e_i) R(e_j) and R(e_i R(e_j) + R(e_i) e_j + t e_i e_j), dense."""
        e_i, e_j = {i: Fraction(1)}, {j: Fraction(1)}
        r_i, r_j = self.op(e_i), self.op(e_j)
        lhs = self.times(r_i, r_j)
        rhs = self.op(_combine(
            (Fraction(1), self.times(e_i, r_j)),
            (Fraction(1), self.times(r_i, e_j)),
            (t, self.times(e_i, e_j)),
        ))
        return ([lhs.get(k, Fraction(0)) for k in range(self.dim)],
                [rhs.get(k, Fraction(0)) for k in range(self.dim)])


def check_baxter_holds(algebra: dict, operator: dict, t: Fraction) -> None:
    baxter = Baxter(algebra, operator)
    for i in range(baxter.dim):
        for j in range(baxter.dim):
            lhs, rhs = baxter.sides(t, i, j)
            if lhs != rhs:
                raise Mismatch(f"{t}-Baxter identity fails at {(i, j)}, expected to hold")


def check_baxter_witness(algebra: dict, operator: dict, t: Fraction, witness: dict) -> None:
    i, j = witness["args"]
    lhs, rhs = Baxter(algebra, operator).sides(t, i, j)
    if lhs == rhs:
        raise Mismatch(f"{t}-Baxter identity holds at {(i, j)}")
    for side, mine in (("lhs", lhs), ("rhs", rhs)):
        if [Fraction(v) for v in witness[side]] != mine:
            raise Mismatch(f"{t}-Baxter witness {(i, j)}: {side} differs from direct evaluation")
