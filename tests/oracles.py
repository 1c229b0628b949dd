"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and separate from the library code
paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from freecomm import algebra
from freecomm.algebra import FreeProductGroup, Z, ell_bar_from_trace, ell_from_trace
from freecomm.discrete import DEFAULT_MERGE_EPS, NEAR_IDENTITY_BAND, NonClosure
from freecomm.groups import cyclic_group


def word_to_letters(syllables):
    """Expand (gen, exponent) syllables into single +/-1 letters."""
    letters = []
    for g, e in syllables:
        sign = 1 if e > 0 else -1
        letters.extend([(g, sign)] * abs(e))
    return letters


def reduce_letters(letters):
    """Letter-by-letter stack cancellation."""
    stack = []
    for g, s in letters:
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((g, s))
    return stack


def letters_to_syllables(letters):
    """Run-length encode a reduced letter list."""
    out = []
    for g, s in letters:
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + s)
        else:
            out.append((g, s))
    return tuple(out)


def evaluate_word(syllables, assignment, mul, inv, one):
    """Value of a (gen, exponent) word under gen -> element, one letter at a
    time: x^e is |e| factors of x (e > 0) or of inv(x) (e < 0)."""
    out = one
    for g, e in syllables:
        letter = assignment[g] if e > 0 else inv(assignment[g])
        for _ in range(abs(e)):
            out = mul(out, letter)
    return out


def norm2(a):
    """Trace 2-norm of an ``AlgebraElement``; by Parseval over the word basis
    this is the l2 norm of its coefficients."""
    return math.sqrt(sum(abs(c) ** 2 for _, c in a.items_sorted()))


# -- the float group-algebra engine ----------------------------------------------
#
# Complex coefficients over FreeProductGroup words, multiplied pair by pair
# through ``FreeProductGroup.concat``: the reference the exact int8/int64
# engine of ``freecomm.algebra`` is compared against.

#: coefficients with modulus below this are dropped after every operation
PRUNE_THRESHOLD = 1e-15

#: bound on the convolution working set (support pairs) and result support
DEFAULT_SUPPORT_CAP = 2_000_000

#: unitarity tolerance used by the length functions
UNITARY_TOL = 1e-9


class SupportCapExceeded(RuntimeError):
    """A product would touch more than ``DEFAULT_SUPPORT_CAP`` word pairs.

    The cap bounds the convolution working set, and so the size of the
    stored result; hitting it raises instead of truncating silently.
    """

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"product needs {needed} support pairs, exceeding the cap of {cap}"
        )
        self.needed = needed
        self.cap = cap


class AlgebraElement:
    """Finitely supported element of the group algebra of a free product,
    with complex coefficients.  Immutable after construction."""

    __slots__ = ("ambient", "_coeffs")

    def __init__(self, ambient, coeffs):
        pruned = {}
        for w, c in coeffs.items():
            c = complex(c)
            if abs(c) >= PRUNE_THRESHOLD:
                pruned[w] = c
        self.ambient = ambient
        self._coeffs = pruned

    @classmethod
    def one(cls, ambient, scale=1.0):
        return cls(ambient, {(): scale})

    @classmethod
    def from_word(cls, ambient, word, scale=1.0):
        return cls(ambient, {word: scale})

    @property
    def support_size(self):
        return len(self._coeffs)

    def coefficient(self, word):
        return self._coeffs.get(word, 0j)

    def items_sorted(self):
        return sorted(self._coeffs.items())

    def __add__(self, other):
        self._check_ambient(other)
        out = dict(self._coeffs)
        for w, c in other._coeffs.items():
            out[w] = out.get(w, 0j) + c
        return AlgebraElement(self.ambient, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        return AlgebraElement(self.ambient, {w: scalar * c for w, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return AlgebraElement(self.ambient, {w: c * other for w, c in self._coeffs.items()})

    def _check_ambient(self, other):
        if self.ambient is not other.ambient:
            raise ValueError("elements live over different free products")


def multiply(a, b):
    """Convolution product, summed in sorted word order on both sides."""
    a._check_ambient(b)
    pairs = a.support_size * b.support_size
    if pairs > DEFAULT_SUPPORT_CAP:
        raise SupportCapExceeded(pairs, DEFAULT_SUPPORT_CAP)
    concat = a.ambient.concat
    acc = {}
    b_items = b.items_sorted()
    for wa, ca in a.items_sorted():
        for wb, cb in b_items:
            w = concat(wa, wb)
            acc[w] = acc.get(w, 0j) + ca * cb
    return AlgebraElement(a.ambient, acc)


def star(a):
    """Adjoint: coefficient of w becomes the conjugate coefficient of w^-1."""
    inv = a.ambient.inverse_word
    return AlgebraElement(a.ambient, {inv(w): c.conjugate() for w, c in a._coeffs.items()})


def trace(a):
    return a.coefficient(())


def is_unitary(a, tol=UNITARY_TOL):
    """True iff every coefficient of a* a - 1 has modulus at most tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    p = multiply(star(a), a)
    dev = abs(p.coefficient(()) - 1.0)
    for w, c in p._coeffs.items():
        if w:
            dev = max(dev, abs(c))
    return dev <= tol


def _require_unitary(a):
    if not is_unitary(a):
        raise ValueError("length functions are only defined for unitaries")


def ell(a):
    """2-norm distance from the identity, sqrt(2 - 2 Re trace)."""
    _require_unitary(a)
    return ell_from_trace(trace(a))


def ell_bar(a):
    """2-norm distance to the nearest unit scalar, sqrt(2 (1 - |trace|))."""
    _require_unitary(a)
    return ell_bar_from_trace(trace(a))


def order_two_unitary(ambient, alpha, factor=0):
    """alpha + i sqrt(1 - alpha^2) s over an order-two factor: trace alpha."""
    if not -1.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (-1, 1)")
    fac = ambient.factors[factor]
    if fac is Z or fac.order != 2:
        raise ValueError("factor must be an order-two group")
    s = 1 - fac.identity  # the unique nontrivial element index
    word = ambient.word([(factor, s)])
    return AlgebraElement(ambient, {(): alpha, word: 1j * math.sqrt(1.0 - alpha * alpha)})


def haar_generator(ambient, factor):
    """Generator word of an infinite cyclic factor: all nonzero powers are
    traceless, i.e. a Haar unitary of the algebra."""
    if ambient.factors[factor] is not Z:
        raise ValueError("factor must be infinite cyclic")
    return AlgebraElement.from_word(ambient, ambient.word([(factor, 1)]))


#: C2 * C2 and C2 * Z; elements over one ambient must share its instance
TWO_INVOLUTIONS = FreeProductGroup((cyclic_group(2), cyclic_group(2)))
INVOLUTION_HAAR = FreeProductGroup((cyclic_group(2), Z))


def commutator_element(a, b):
    return multiply(multiply(multiply(a, b), star(a)), star(b))


def exact_commutator(w, c):
    """w c w* c* of exact ``freecomm.algebra`` elements as three plain
    products, ((w c) w*) c*, assuming nothing of w."""
    return algebra.multiply(algebra.multiply(algebra.multiply(w, c), algebra.star(w)),
                            algebra.star(c))


# -- a dict-of-words reference for the exact product ------------------------------
#
# An element is {word: (grid, parity)}: a flat word of C2 * Z, the object
# array of integers whose entry [d][e] multiplies alpha^d beta^e, and the
# parities (p, q) of gamma_alpha^p gamma_beta^q.

#: gamma_alpha^2 = alpha^2 - 1 and gamma_beta^2 = beta^2 - 1 as grids
GAMMA_SQUARED = (np.array([[-1], [0], [1]], dtype=object), np.array([[-1, 0, 1]], dtype=object))


def grid_product(p, q):
    """The product of two integer polynomials in alpha and beta, as grids."""
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1), dtype=object)
    for (d, e), c in np.ndenumerate(p):
        out[d : d + q.shape[0], e : e + q.shape[1]] += c * q
    return out


def grid_sum(p, q):
    out = np.zeros(np.maximum(p.shape, q.shape), dtype=object)
    out[: p.shape[0], : p.shape[1]] += p
    out[: q.shape[0], : q.shape[1]] += q
    return out


def _dict_sum(terms):
    """Sum (word, grid, parity) terms into a {word: (grid, parity)} element:
    equal words must carry equal parities (ArithmeticError otherwise), and
    words whose grids sum to 0 are dropped."""
    acc = {}
    for word, grid, parity in terms:
        if word in acc:
            if acc[word][1] != parity:
                raise ArithmeticError("equal words carry different parities")
            grid = grid_sum(acc[word][0], grid)
        acc[word] = (grid, parity)
    return {w: (g, p) for w, (g, p) in acc.items() if any(g.flat)}


def dict_add(a, b):
    """The sum of two {word: (grid, parity)} elements, grids summed in
    Python integers word by word."""
    return _dict_sum((w, g, p) for elem in (a, b) for w, (g, p) in elem.items())


def dict_multiply(a, b, ambient=INVOLUTION_HAAR):
    """The product of two {word: (grid, parity)} elements, pair by pair.

    Words are reduced by ``FreeProductGroup.concat``, grids multiplied in
    Python integers, and where both words are odd in t the pair's grid is
    multiplied by gamma_t^2 = t^2 - 1; the pairs are summed as in
    ``dict_add``.
    """

    def terms():
        for (wa, (ga, pa)), (wb, (gb, pb)) in itertools.product(a.items(), b.items()):
            grid = grid_product(ga, gb)
            for t in (0, 1):
                if pa[t] and pb[t]:
                    grid = grid_product(grid, GAMMA_SQUARED[t])
            yield ambient.concat(wa, wb), grid, (pa[0] ^ pb[0], pa[1] ^ pb[1])

    return _dict_sum(terms())


def two_norm_dist(a, b):
    """Trace 2-norm distance of two N x N matrices: the Frobenius norm of
    a - b scaled by 1/sqrt(N)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a - b) / np.sqrt(a.shape[0]))


def poly_element_at(w, alpha, ambient=INVOLUTION_HAAR):
    """A ``freecomm.algebra.PolyElement`` in alpha alone as a float
    ``AlgebraElement`` at alpha: the coefficient at word g is
    gamma^parity(g) P_g(alpha), gamma = i sqrt(1 - alpha^2)."""
    assert w.coeffs.shape[2] == 1 and not w.parity[:, 1].any()
    gamma = 1j * math.sqrt(1.0 - alpha * alpha)
    values = w.coeffs[:, :, 0] @ (alpha ** np.arange(w.coeffs.shape[1]))
    return AlgebraElement(ambient, {g: gamma**parity * value for g, parity, value
                                    in zip(w.words, w.parity[:, 0].tolist(), values.tolist())})


def integer_recursion_polynomials(n_max):
    """tau_1 .. tau_n_max of tau_{n+1} = 1 - (1 - tau_n^2)(1 - alpha^2) as
    integer coefficient lists in alpha, lowest degree first."""

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def one_minus(p):
        out = [-c for c in p]
        out[0] += 1
        return out

    taus = [[0, 1]]
    while len(taus) < n_max:
        taus.append(one_minus(mul(one_minus(mul(taus[-1], taus[-1])), [1, 0, -1])))
    return taus


#: singular values below this count as zero in the SVD rank oracles
RANK_TOL = 1e-8


def svd_commutant_dimension(group):
    """Null-space dimension of the stacked conditions g X = X g on vec(X)
    (column-major) over the elements g of a MatrixGroup, counted by
    singular values."""
    n = group.dim
    eye = np.eye(n)
    blocks = [np.kron(eye, m) - np.kron(m.T, eye) for m in group.elements]
    svals = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return n * n - int(np.sum(svals > RANK_TOL))


def su_basis(n):
    """Real basis of traceless skew-Hermitian n x n matrices (n^2 - 1 of them)."""
    basis = []
    for k in range(n - 1):
        d = np.zeros((n, n), dtype=complex)
        d[k, k] = 1j
        d[k + 1, k + 1] = -1j
        basis.append(d)
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = 1.0
            a[k, j] = -1.0
            basis.append(a)
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = 1j
            s[k, j] = 1j
            basis.append(s)
    return basis


def adjoint_fixed_space(group):
    """Real basis of {X traceless skew-Hermitian : g X g* = X for every
    element g of a MatrixGroup}.

    A nonzero fixed vector is an invariant abelian Lie-subalgebra direction
    (a torus direction); the space is zero iff the commutant is scalar.
    """
    basis = su_basis(group.dim)
    if not basis:  # su(1) = 0
        return []
    rows = []
    for m in group.elements:
        cols = []
        for b in basis:
            diff = m @ b @ m.conj().T - b
            cols.append(np.concatenate([diff.real.ravel(), diff.imag.ravel()]))
        rows.append(np.stack(cols, axis=1))
    system = np.vstack(rows)  # (2 n^2 |G|) x (n^2 - 1), always at least square
    _, svals, vt = np.linalg.svd(system)
    return [sum(c * b for c, b in zip(row, basis)) for row in vt[svals <= RANK_TOL]]


def naive_closure(generators, tol=1e-8, max_elements=100_000):
    """Repeated all-pairs multiplication until no new elements appear."""
    elements = [np.eye(generators[0].shape[0], dtype=complex)]

    def find(m):
        for i, e in enumerate(elements):
            if np.linalg.norm(e - m) <= tol * np.sqrt(m.shape[0]):
                if np.linalg.svd(e - m, compute_uv=False)[0] <= tol:
                    return i
        return None

    frontier = list(generators) + [g.conj().T for g in generators]
    for m in frontier:
        if find(m) is None:
            elements.append(m)
    changed = True
    while changed:
        changed = False
        for a in list(elements):
            for b in list(elements):
                p = a @ b
                if find(p) is None:
                    elements.append(p)
                    changed = True
                    if len(elements) > max_elements:
                        raise RuntimeError("naive closure blew up")
    return elements


def sequential_closure(generators, cap=10_000):
    """Breadth-first closure one product at a time: each product is looked
    up against every element known so far (first Frobenius-certain match,
    else the op-norm check over the Frobenius band in index order), and the
    Cayley table is filled one entry at a time from the discovery words.
    Returns ``(elements, table, generator_indices)`` or a ``NonClosure``."""
    eps, band = DEFAULT_MERGE_EPS, NEAR_IDENTITY_BAND
    gens = [np.asarray(g, dtype=complex) for g in generators]
    dim = gens[0].shape[0]
    steps = gens + [g.conj().T for g in gens]
    elements = [np.eye(dim, dtype=complex)]

    def find(m):
        fro = np.linalg.norm(np.array([e.ravel() for e in elements]) - m.ravel(), axis=1)
        certain = np.nonzero(fro <= eps)[0]
        if certain.size:
            return int(certain[0])
        for idx in np.nonzero(fro <= eps * np.sqrt(dim))[0]:
            if np.linalg.svd(elements[idx] - m, compute_uv=False)[0] <= eps:
                return int(idx)
        return None

    right, found_by = [], []
    i = 0
    while i < len(elements):
        row = []
        for k, s in enumerate(steps):
            p = elements[i] @ s
            found = find(p)
            if found is None:
                d_id = float(np.linalg.svd(p - np.eye(dim), compute_uv=False)[0])
                if d_id <= band:
                    return NonClosure("near_identity", p, d_id, len(elements))
                if len(elements) >= cap:
                    return NonClosure("cap_exceeded", p, d_id, len(elements))
                found = len(elements)
                elements.append(p)
                found_by.append((i, k))
            row.append(found)
        right.append(row)
        i += 1

    table = []
    for i in range(len(elements)):
        row = [i]
        for parent, k in found_by:
            row.append(right[row[parent]][k])
        table.append(row)
    return elements, table, right[0][: len(gens)]


def table_check_error(table):
    """The first defect of a multiplication table, as the ``ValueError``
    message ``FiniteGroup`` gives for it, found by plain loops in the same
    order (integer entries in the rows before the first ragged one, rows,
    columns, identity, inverses, Light's associativity test over a greedy
    generating set); None for a group table."""
    rows = [list(row) for row in table]
    n = len(rows)
    if n == 0:
        return "group must have at least one element"
    for row in itertools.takewhile(lambda row: len(row) == n, rows):
        if not all(isinstance(x, (int, np.integer)) and -2**63 <= x < 2**63 for x in row):
            return "table entries must be integers"
    for i, row in enumerate(rows):
        if len(row) != n:
            return f"table row {i} has length {len(row)}, expected {n}"
        if sorted(row) != list(range(n)):
            return f"table row {i} is not a permutation of 0..{n - 1}"
    for j in range(n):
        if sorted(rows[i][j] for i in range(n)) != list(range(n)):
            return f"table column {j} is not a permutation of 0..{n - 1}"
    e = next((e for e in range(n)
              if all(rows[e][j] == j and rows[j][e] == j for j in range(n))), None)
    if e is None:
        return "table has no two-sided identity"
    for a, row in enumerate(rows):
        if rows[row.index(e)][a] != e:
            return f"element {a} has no two-sided inverse"

    def generated(gens):
        reached, queue = {e}, [e]
        for a in queue:
            for s in gens:
                if rows[a][s] not in reached:
                    reached.add(rows[a][s])
                    queue.append(rows[a][s])
        return reached

    gens = []
    for g in range(n):
        if g not in generated(gens):
            gens.append(g)
    for s in gens:
        for a in range(n):
            for c in range(n):
                if rows[rows[a][s]][c] != rows[a][rows[s][c]]:
                    return f"table is not associative at ({a}, {s}, {c})"
    return None


def ks_uniform(samples) -> float:
    """Kolmogorov statistic of samples against the uniform law on [0, 1]."""
    xs = np.sort(np.asarray(samples))
    n = len(xs)
    hi = np.max(np.abs(np.arange(1, n + 1) / n - xs))
    lo = np.max(np.abs(xs - np.arange(0, n) / n))
    return float(max(hi, lo))


def reduce_mixed_letters(group, tokens):
    """Letter-level normal form of a Z * G token stream.

    ``("t", e)`` is spelled as |e| letters t^(+-1) and ``("g", g)`` as one
    letter; each letter meets only the top of the stack.  Returns the
    (coeffs, exps) pair of the alternating form g0 t^e1 g1 ... t^ek gk.
    """
    stack = []
    for kind, val in tokens:
        if kind == "g":
            letters = [("g", val)]
        else:
            letters = [("t", 1 if val > 0 else -1)] * abs(val)
        for kind1, v in letters:
            if kind1 == "g":
                if stack and stack[-1][0] == "g":
                    v = group.mul(stack.pop()[1], v)
                if v != group.identity:
                    stack.append(("g", v))
            elif stack and stack[-1] == ("t", -v):
                stack.pop()
            else:
                stack.append(("t", v))
    coeffs, exps = [group.identity], []
    prev = None
    for kind, v in stack:
        if kind == "g":
            coeffs[-1] = v
        elif prev == "t":
            exps[-1] += v
        else:
            exps.append(v)
            coeffs.append(group.identity)
        prev = kind
    return tuple(coeffs), tuple(exps)


def reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose first row and first column
    are 0, 1, ..., n-1 in order, by backtracking cell by cell."""
    square = [[j if i == 0 else (i if j == 0 else -1) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in square)
            return
        i, j = cells[k]
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                square[i][j] = v
                yield from fill(k + 1)
        square[i][j] = -1

    yield from fill(0)


def is_associative(table):
    """(ab)c == a(bc) over all n^3 triples."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def enumerate_mixed_words(group, max_syllables, exp_bound):
    """Every normal-form mixed word g0 t^e1 g1 ... t^ek gk with 1 <= k <=
    ``max_syllables`` and 1 <= |e_i| <= ``exp_bound``, in the order
    k, exponents, g0, interior, gk."""
    from freecomm.mixed import MixedWord

    exp_values = [e for m in range(1, exp_bound + 1) for e in (m, -m)]
    nontrivial = [g for g in range(group.order) if g != group.identity]
    for k in range(1, max_syllables + 1):
        for exps in itertools.product(exp_values, repeat=k):
            for g0 in range(group.order):
                for interior in itertools.product(nontrivial, repeat=k - 1):
                    for gk in range(group.order):
                        yield MixedWord(group, (g0, *interior, gk), exps)


def brute_force_mixed_scan(group, max_syllables, exp_bound):
    """``mixed_identity_scan``'s report from deciding every window word by
    evaluation at every element."""
    from freecomm.mixed import is_mixed_identity

    identities, checked = [], 0
    for word in enumerate_mixed_words(group, max_syllables, exp_bound):
        checked += 1
        if is_mixed_identity(word):
            identities.append(str(word))
    return {
        "group": group.name,
        "order": group.order,
        "max_syllables": max_syllables,
        "exp_bound": exp_bound,
        "checked": checked,
        "identities": identities,
        "identity_found": bool(identities),
    }


def loop_mixed_scan(group, max_syllables, exp_bound):
    """``mixed_identity_scan``'s report by the loop it replaced: each
    (exponents, interior) choice is decided by evaluating u(t) = t^e1 g1
    ... t^ek at t = 0, 1, ... in turn, stopping at the first value that
    differs from u(0)."""
    from freecomm.mixed import _format_word

    n, table, one, labels = group.order, group.table, group.identity, group.labels
    exp_values = [e for m in range(1, exp_bound + 1) for e in (m, -m)]
    powers = {e: [group.power(g, e) for g in range(n)] for e in exp_values}
    nontrivial = [g for g in range(n) if g != one]
    identities = []

    def u_at(g, steps):
        value = one
        for h, power in steps:
            value = table[table[value][h]][power[g]]
        return value

    for k in range(1, max_syllables + 1):
        for exps in itertools.product(exp_values, repeat=k):
            constant = []
            for interior in itertools.product(nontrivial, repeat=k - 1):
                steps = list(zip((one, *interior), [powers[e] for e in exps]))
                c = u_at(0, steps)
                if all(u_at(g, steps) == c for g in range(1, n)):
                    constant.append((interior, c))
            for g0 in range(n):
                for interior, c in constant:
                    coeffs = (g0, *interior, group.inv(table[g0][c]))
                    identities.append(_format_word(labels, coeffs, exps))
    return {
        "group": group.name,
        "order": group.order,
        "max_syllables": max_syllables,
        "exp_bound": exp_bound,
        "checked": sum(len(exp_values) ** k * n * n * (n - 1) ** (k - 1)
                       for k in range(1, max_syllables + 1)),
        "identities": identities,
        "identity_found": bool(identities),
    }


def dense_decay_curve(u, v, n_max):
    """(trace, ell, ell_bar) of w_1 .. w_{n_max}(u, v) on dense N x N
    matrices: the conjugates c_n = v^n u v^-n are tracked incrementally,
    w_{n+1} = w_n c_n w_n* c_n* is formed in full, and the lengths are the
    trace 2-norm distances to 1 and to the unit scalar tau / |tau|."""
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    dim = u.shape[0]
    eye = np.eye(dim)
    rows = []
    w, p = u, eye
    for n in range(1, n_max + 1):
        tau = complex(np.trace(w)) / dim
        phase = tau / abs(tau) if tau else 1.0
        rows.append((tau.real,
                     float(np.linalg.norm(w - eye) / math.sqrt(dim)),
                     float(np.linalg.norm(w - phase * eye) / math.sqrt(dim))))
        if n < n_max:
            p = p @ v
            c = p @ u @ p.conj().T
            w = w @ c @ w.conj().T @ c.conj().T
    return rows


def dense_cmv(alpha):
    """The CMV matrix L M of Verblunsky coefficients alpha, built entry by
    entry: L holds the 2 x 2 blocks [[conj a_k, rho_k], [rho_k, -a_k]] on
    coordinates k, k + 1 for even k, M a 1 at (0, 0) and those for odd k,
    and the last coordinate alone gets conj a_{N-1} in whichever factor
    owns it."""
    n = len(alpha)
    factors = [np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)]
    factors[1][0, 0] = 1.0
    for k, a in enumerate(alpha):
        f = factors[k % 2]
        if k == n - 1:
            f[k, k] = np.conj(a)
        else:
            rho = math.sqrt(1.0 - abs(a) ** 2)
            f[k, k], f[k, k + 1] = np.conj(a), rho
            f[k + 1, k], f[k + 1, k + 1] = rho, -a
    return factors[0] @ factors[1]


def orthonormalize_haar(z):
    """Orthonormal columns spanning the columns of z (N x m, m <= N), by
    blocked Householder QR with the triangular factor's diagonal phases
    divided out: a Haar unitary for a square complex-Gaussian z, a Haar
    N x m frame for a tall one.

    The columns are factored in panels of 32.  Inside a panel each
    reflector H = I - tau v v* (v[0] carries the phase of the pivot,
    tau = 2/|v|^2) is applied to the panel's own columns; the panel's
    reflectors are gathered as I - V T V* (LAPACK ``larft``, forward and
    columnwise), and the trailing columns get C -= V (T* (V* C)).  Q is
    formed by applying the blocks to I[:, :m] in reverse, C -= V (T (V* C)).
    """
    n, m = z.shape
    a = z.astype(complex)
    blocks = []
    for k0 in range(0, m, 32):
        k1 = min(k0 + 32, m)
        b = k1 - k0
        v_blk = np.zeros((n - k0, b), dtype=complex)
        taus = np.zeros(b)
        for j in range(b):
            k = k0 + j
            x = a[k:, k]
            xnorm = float(np.sqrt(np.einsum("i,i->", x.conj(), x).real))
            s = x[0] / abs(x[0]) if abs(x[0]) > 0 else 1.0 + 0j
            v = v_blk[j:, j]
            v[:] = x
            v[0] += s * xnorm
            vnorm2 = float(np.einsum("i,i->", v.conj(), v).real)
            if vnorm2 > 0:
                taus[j] = 2.0 / vnorm2
                w = np.einsum("i,ij->j", v.conj(), a[k:, k:k1])
                a[k:, k:k1] -= np.multiply.outer(v, taus[j] * w)
        gram = np.einsum("ij,ik->jk", v_blk.conj(), v_blk)
        t = np.zeros((b, b), dtype=complex)
        for j in range(b):
            t[j, j] = taus[j]
            t[:j, j] = -taus[j] * np.einsum("ij,j->i", t[:j, :j], gram[:j, j])
        if k1 < m:
            c = a[k0:, k1:]
            c -= v_blk @ (t.conj().T @ (v_blk.conj().T @ c))
        blocks.append((k0, v_blk, t))
    r_diag = np.diagonal(a).copy()
    q = np.eye(n, m, dtype=complex)
    for k0, v_blk, t in reversed(blocks):
        c = q[k0:, k0:]
        c -= v_blk @ (t @ (v_blk.conj().T @ c))
    mods = np.abs(r_diag)
    phases = np.where(mods > 0, r_diag / np.where(mods > 0, mods, 1.0), 1.0)
    return q * phases[np.newaxis, :]


def unblocked_haar(n, m, seed):
    """The N x m Haar frame of ``matrices._haar_frame`` from the same drawn
    reflectors, applied one at a time: the Gaussian draws are taken panel by
    panel in the sampler's order, x_k is column k - k0 of its panel's draw
    from row k - k0 down, and I[:, :m] gets H_m first, then H_{m-1}, ...,
    each as C -= tau v (v* C), then column k times -s_k."""
    from freecomm.matrices import _PANEL_WIDTH, make_rng

    rng = make_rng(seed)
    q = np.eye(n, m, dtype=complex)
    phases = np.zeros(m, dtype=complex)
    for k0 in reversed(range(0, m, _PANEL_WIDTH)):
        b = min(_PANEL_WIDTH, m - k0)
        draw = rng.standard_normal((n - k0, b)) + 1j * rng.standard_normal((n - k0, b))
        for j in reversed(range(b)):
            k = k0 + j
            x = draw[j:, j]
            s = x[0] / abs(x[0])
            v = x.copy()
            v[0] += s * np.linalg.norm(x)
            tau = 2.0 / np.vdot(v, v).real
            q[k:] -= tau * np.outer(v, v.conj() @ q[k:])
            phases[k] = -s
    return q * phases


def subgroup_verdicts(group, members):
    """(abelian, normal) for the subgroup with index set ``members``, by the
    full scans: every pair of members commutes, and g h g^-1 is a member
    for every group element g and member h."""
    abelian = all(group.mul(i, j) == group.mul(j, i) for i in members for j in members)
    normal = all(
        group.mul(group.mul(g, h), group.inv(g)) in members
        for g in range(group.order)
        for h in members
    )
    return abelian, normal


# -- the matrix layer's dense forms ------------------------------------------------


def traced_peak(f, *args):
    """Peak bytes ``tracemalloc`` sees above the start while f(*args) runs;
    numpy reports its array buffers to it."""
    import tracemalloc

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def dense_unitarity_defect(u):
    """||U*U - I|| from the whole m x m error E = U*U - I: its Frobenius
    norm, or, when that exceeds ``UNITARY_OP_TOL``, the op norm of E."""
    from freecomm.matrices import UNITARY_OP_TOL, as_array, op_norm

    a = as_array(u)
    e = a.conj().T @ a - np.eye(a.shape[1])
    fro = float(np.linalg.norm(e))
    if fro <= UNITARY_OP_TOL:
        return fro
    return op_norm(e)


def einsum_panel_gram(v):
    """V* V for a Householder panel V, as one einsum."""
    return np.einsum("ij,ik->jk", v.conj(), v)


def whole_freeness_report(u, v):
    """``freeness_report`` from the whole products UV and VU: tr(UV) off the
    diagonal of UV, and tr(UV (VU)*) as one entrywise pairing in place."""
    from freecomm.matrices import CMVMatrix, FreenessReport, as_array, normalized_trace

    a, b = (x if isinstance(x, CMVMatrix) else as_array(x) for x in (u, v))
    n = a.shape[0]
    tu, tv = normalized_trace(a), normalized_trace(b)
    uv, vu = a @ b, b @ a
    tuv = normalized_trace(uv)
    np.conjugate(vu, out=vu)
    tcomm = complex(np.multiply(uv, vu, out=vu).sum()) / n
    d1 = abs(tuv - tu * tv)
    rhs = 1.0 - (1.0 - abs(tu) ** 2) * (1.0 - abs(tv) ** 2)
    return FreenessReport(n, tu, tv, tuv, tcomm, d1, abs(tcomm - rhs))


def _whole_cmv_factor(c, start, x, out):
    """out = L x (start 0) or M x (start 1) for a ``CMVMatrix`` c, over all
    columns of x at once."""
    n = len(c.alpha)
    a, r = c.alpha[start : n - 1 : 2, None], c._rho[start : n - 1 : 2, None]
    top, bottom = x[start : n - 1 : 2], x[start + 1 : n : 2]
    out_top, out_bottom = out[start : n - 1 : 2], out[start + 1 : n : 2]
    a_bottom, r_top = a * bottom, r * top
    np.multiply(a.conj(), top, out=out_top)
    np.multiply(r, bottom, out=out_bottom)
    np.add(out_top, out_bottom, out=out_top)
    np.subtract(r_top, a_bottom, out=out_bottom)
    out[:start] = x[:start]
    if (n - 1 - start) % 2 == 0:
        np.multiply(x[n - 1], c.alpha[n - 1].conj(), out=out[n - 1])
    return out


def whole_cmv_matmul(c, x):
    """C X with each of C's factors applied to all columns of X at once."""
    y = _whole_cmv_factor(c, 1, x, np.empty_like(x, dtype=complex))
    return _whole_cmv_factor(c, 0, y, y)


def whole_cmv_rmatmul(x, c):
    """X C as (M (L X^T))^T over the transposed view of X, in its layout."""
    xt = x.T
    y = _whole_cmv_factor(c, 0, xt, np.empty_like(xt, dtype=complex))
    return _whole_cmv_factor(c, 1, y, y).T


def eye_factor_lengths(sign, b, m):
    """(tau, ell, ell_bar) of w = sign (I + B M B*) with each distance to a
    unit scalar c read off the whole array (1 - sign c) I + B M B*."""
    dim = b.shape[0]
    s = b @ m @ b.conj().T
    trace = complex(np.trace(s))
    if np.array_equal(m, m.conj().T):
        trace = trace.real
    tau = sign * (1.0 + trace / dim)
    phase = tau / abs(tau) if tau else 1.0

    def dist(c):
        x = s + (1.0 - sign * c) * np.eye(dim)
        return math.sqrt(float((x.real**2 + x.imag**2).sum()) / dim)

    return tau, dist(1.0), dist(phase)


def collect(rows, coeffs, parity):
    """The element of the words ``rows`` with the polynomials ``coeffs``, as
    ``algebra.multiply`` collected its whole pair grid: equal words summed
    and every word tested for 0, the words sorted by their bytes.  A word
    met once is gathered straight into place, and only the words met more
    than once are summed.  Equal words carrying different parities raise
    ArithmeticError."""
    order, starts = algebra._sort_words(rows)
    group = np.cumsum(starts) - 1  # the word of each sorted row
    first = order[starts]
    sums = coeffs[first]
    counts = np.diff(np.flatnonzero(np.append(starts, True)))
    repeated = np.flatnonzero(counts[group] > 1)  # sorted rows of words met more than once
    if (parity[order[repeated]] != parity[first[group[repeated]]]).any():
        raise ArithmeticError("equal words carry different parities")
    if repeated.size:
        heads = np.flatnonzero(starts[repeated])
        sums[counts > 1] = np.add.reduceat(coeffs[order[repeated]], heads, axis=0)
    return algebra._element(rows[first], sums, parity[first], np.ones(len(first), dtype=bool))


def toeplitz_multiply(a, b):
    """a b as ``algebra.multiply`` computed it before its convolution was
    oriented by degree cells: the pairs run word by word of the operand
    with more words, the tall one, and one int64 product gives every
    pair's polynomial, the tall operand's polynomials times the Toeplitz
    matrix of the short one, whose column block s multiplies by its
    polynomial s.  Both odd in t: gamma_t^2 = t^2 - 1."""
    tall, short = (a, b) if a.support_size >= b.support_size else (b, a)
    nt, ns = tall.support_size, short.support_size
    _, dt, et = tall.coeffs.shape
    _, ds, es = short.coeffs.shape
    algebra._check_int64(algebra._max_abs(a.coeffs), algebra._max_abs(b.coeffs),
                         min(dt, ds) * min(et, es), 4 * nt * ns)
    by_tall, by_short = np.repeat(np.arange(nt), ns), np.tile(np.arange(ns), nt)
    i, j = (by_tall, by_short) if tall is a else (by_short, by_tall)
    odd = (a.parity[i] & b.parity[j]).astype(bool)
    spare = 2 * odd.any(axis=0)
    d_out, e_out = dt + ds - 1 + spare[0], et + es - 1 + spare[1]
    toeplitz = np.zeros((dt, et, ns, d_out, e_out), dtype=np.int64)
    for d, e in itertools.product(range(dt), range(et)):
        toeplitz[d, e, :, d : d + ds, e : e + es] = short.coeffs
    prod = tall.coeffs.reshape(nt, dt * et) @ toeplitz.reshape(dt * et, ns * d_out * e_out)
    prod = prod.reshape(nt * ns, d_out, e_out)
    for axis in np.flatnonzero(spare):
        p = prod[odd[:, axis]]
        prod[odd[:, axis]] = np.roll(p, 2, axis=axis + 1) - p
    return collect(algebra._row_products(a.rows, b.rows, i, j), prod, a.parity[i] ^ b.parity[j])
