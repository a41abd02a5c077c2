"""Exact arithmetic in a two-step field extension F_p < F_q < F_{q^m}.

Elements are plain Python integers in a positional encoding:

    an element sum_i c_i y^i of the top field (c_i in F_q) is the integer
    sum_i enc(c_i) * q^i, where enc maps a base-field residue
    sum_j d_j x^j (d_j in [0, p)) to the integer sum_j d_j p^j.

The encoding is bit-exact and reproducible: a field is fully described by
(p, e, m, base_modulus, top_modulus), all moduli given low-to-high as digit
tuples.  Both levels share one candidate order and one check
(``FieldTower._modulus``): a modulus not supplied is the first monic
candidate, its low coefficients counted up as base-p (base) or base-q (top)
digits, that is irreducible by Ben-Or's test and, at the top, has a
primitive root, found by powers of y over the factored q^m - 1; a supplied
one must pass the same check.  This makes construction deterministic, and
``gamma`` (the residue of y) generates the whole multiplicative group.  For
m >= 2 the top search starts past the binomials y^m + c, none of which is
primitive.

F_q has one set of tables for q <= 512, built at construction by
``_init_base_tables``: the scalar base ops read them for e >= 2 (residues mod
p for e = 1), and so do the numpy ranks, ``_base_product`` and ``numpy_tables``.

Arithmetic routes in F_{q^m}, each checked in the tests against its oracle:

- order <= 2^16: ``mul``, ``inv``, ``pow`` and ``frobenius`` look up tables
  of gamma-powers, built at construction by the product routes below;
- sum, odd p, order <= 2^16: ``add``, ``sub`` and ``neg`` by Zech
  logarithms, a + b = gamma^(log a + zech[log b - log a]) with
  zech[i] = log(1 + gamma^i) (oracle: ``_digitwise_mod_add``/``_sub``, the
  top-field digit loops past the tables); p = 2 adds by XOR;
- product with an operand 1, past the tables: the other operand, with no
  arithmetic (monic columns, first norms, Newton steps);
- product, p = 2: one carry-less pass over the integer encoding with an
  e-bit digit stride, on the multiples x^t b, reduced through the q-entry
  table of c f (oracle: ``_qpoly_mulmod``);
- product, odd p: Kronecker substitution, one big-int product of the
  base-p digits in w-bit slots, digit r of y-digit i in slot i (2e - 1) + r
  so that the x-degrees of each y^i stay apart (oracle: ``_qpoly_mulmod``);
  the slots of its pair ``_spread``/``_reduce`` hold m + 1 products without
  carry, so ``_slot_dot``, Newton steps and ``_row_update`` reduce once each;
- Frobenius sigma^i: the F_q-linear map a -> sum_j T_i[j][a_j], with
  T_i[j][c] = c sigma^i(y^j) built on first use (oracle: ``pow(a, q^i)``);
- inverse: Itoh-Tsujii, a^-1 = a^(r - 1) / a^r, r = (q^m - 1)/(q - 1), with a^r
  in F_q and a^(r - 1) along the bits of m - 1 over Frobenius powers; m = 1 by
  ``base_inv``, past the Frobenius guard by ``pow`` (oracle: ``pow(a, q^m - 2)``);
- matrix product ``mat_mul`` (``vec_mat`` is its one-row case): one
  product over F_p on the e m base-p digits of the entries, through the
  structure tensor of the field, exact on float64 BLAS while k (e m)^2
  (p - 1)^3 < 2^53 for k inner terms and on Python ints past it (oracle:
  the scalar ``mul``/``add`` loop in the tests).

Ranks over F_q (``FieldTower.base_matrix_rank``, ``base_block_ranks`` and
``rank_over_base``), each checked in the tests against ``_eliminate``:

- p = 2: ``_packed_rank`` on vectors packed into ints, e bits per entry, so
  adding two is one XOR; each pivot keeps the q-entry table of its F_q
  multiples.  Matrix columns are packed by int64 shift-sums, and a top-field
  encoding already is its packed vector of m digits;
- odd p: ``_numpy_rank``, a numpy elimination by mod-p arithmetic for prime
  q and by F_q table gathers otherwise, and ``_eliminate`` on the digit
  lists of ``rank_over_base``.

``_eliminate``, the list elimination that scales each pivot row, is the
oracle of both and the kernel of the F_{q^m} matrices (``mat_rank``,
``mat_det``, ``mat_inv``).  ``FieldTower.numpy_tables`` builds the order x
order add, mul and reduction tables of brute force once per field, and is
the one check of their guard.

F_q[y] has one long division, ``_qpoly_divmod``.  Its remainder reduces the
schoolbook product ``_qpoly_mulmod``, which serves the modulus search
(``_qpoly_powmod``) and the rows d x^i w of a primitive candidate behind the
base-field tables and is both packed products' oracle, and it gives the
fold rows x^r y^i mod (g, f) of the odd-p slot product; its remainders
drive Ben-Or's gcd.

Kept with no production caller: ``FieldTower.conjugacy_classes`` checks
paper criterion 8 and is the oracle of the norm comparison that
``lrs.validate`` makes, one norm per representative; ``base_mat_mul`` is
the checked public product of two F_q matrices, whose unchecked core
``_base_product`` multiplies the draws of ``netsim.sample_channel``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Tables of gamma-powers are kept for fields up to this order; they make
# scalar multiplication O(1) and feed the vectorized numpy paths.
_SCALAR_TABLE_MAX = 1 << 16
# The F_q tables, and the order x order ones of `numpy_tables`, up to this order.
_NUMPY_TABLE_MAX = 512
# `base_matrix_rank` keeps residues mod primes below this in int64, where
# every product and sum fits; larger primes eliminate on Python ints.
_INT64_PRIME_BOUND = 1 << 31
# Encodings of fields up to this order fit in int64.
_INT64_ORDER_BOUND = 1 << 63
# `mat_mul` multiplies on float64 while every partial sum is an integer
# below this, which float64 holds exactly.
_FLOAT_EXACT_BOUND = 1 << 53
# Exhaustive conjugacy-class enumeration guard.
_CLASS_ENUM_MAX = 1 << 20
# Entries (m q) of the table of one Frobenius power sigma^i; past it
# `frobenius` refuses the field instead of grinding.  For prime q one entry
# took 1.6 us at m = 2 and 5.7 us at m = 4 on a 2-vCPU Xeon, so a table at
# the guard builds in 0.2 to 0.75 s.
_FROBENIUS_TABLE_MAX = 1 << 17
# Entries of the table that spreads several base-p digits at once.
_SPREAD_TABLE_MAX = 1 << 10
# Miller-Rabin on these bases is exact below the bound (Sorenson and
# Webster, 2015); `prime_power` refuses to answer past it.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    # Miller-Rabin, deterministic below _MR_DETERMINISTIC_BOUND
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int):
    """Return (p, e) with n = p**e, or None if n is not a prime power.

    A ValueError stands for an answer that would rest on a probable prime:
    a "prime" verdict of `is_prime` past the range where its bases are
    proven exact.  Its "composite" verdicts are always certain.
    """
    if n < 2:
        return None
    if _certified_prime(n):
        return (n, 1)
    # n = p^a is an exact e-th power iff e | a, so the largest e with an
    # exact root gives p itself when n is a prime power
    for e in range(n.bit_length() - 1, 1, -1):
        r = _iroot(n, e)
        if r ** e == n:
            return (r, e) if _certified_prime(r) else None
    return None


def _certified_prime(n: int) -> bool:
    """`is_prime`, with a ValueError where it could only say "probably"."""
    if not is_prime(n):
        return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"{n} lies past the deterministic primality range")
    return True


def _iroot(n: int, e: int) -> int:
    """The integer e-th root floor(n^(1/e)) of n >= 1, by Newton's method
    from an upper bound."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def factorize(n: int) -> dict:
    """Prime factorization by trial division up to about the second-largest
    prime factor: n is tested for primality at the start and after each
    division, and the loop stops once the cofactor left is prime.  That test
    is `_certified_prime`, so a ValueError stands for a factorization whose
    last factor would rest on a probable prime, as 2^89 - 1 does, and for
    n < 1, which has no factorization."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1; got {n}")
    factors = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    prime = _certified_prime(n)
    f = 5
    while not prime and f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                while n % p == 0:
                    factors[p] = factors.get(p, 0) + 1
                    n //= p
                prime = _certified_prime(n)
        f += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class FieldTower:
    """F_p < F_q < F_{q^m} with q = p^e, Frobenius a -> a^q, primitive gamma.

    All operations take and return integer encodings.  Instances are
    immutable after construction and safe to share between workers.
    """

    def __init__(self, p: int, e: int, m: int, base_modulus=None, top_modulus=None):
        # certified, so a strong pseudoprime to every base is refused
        if not _certified_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or m < 1:
            raise ValueError("extension degrees must be >= 1")
        self.p = p
        self.e = e
        self.m = m
        self.q = p ** e
        self.order = self.q ** m
        self._p2 = (p == 2)
        # an encoding's e*m base-p digits are its coordinates over F_p
        self._ndigits = e * m

        self.base_modulus = self._modulus(base_modulus, top=False)
        self._init_base_tables()
        # factored on first use, so a malformed top modulus fails before it
        self._order_factors = None
        self.top_modulus = self._modulus(top_modulus, top=True)

        # for m = 1, y is the root -f_0 of y + f_0
        self.gamma = self.q if m >= 2 else self.base_neg(self.top_modulus[0])

        # every attribute is set here: one written to the instance later
        # defeats CPython's attribute specialization and slows `mul`
        self._frobenius_maps = {}  # i -> T_i, built on first use
        if self._p2:
            self._init_binary_packing()
        else:
            self._init_slot_packing()

        self._exp = None
        self._log = None
        self._zech = None  # odd p only
        if self.order <= _SCALAR_TABLE_MAX:
            self._build_scalar_tables()
        self._slot_sums = not self._p2 and self._exp is None  # odd p, no log tables
        self._np_tables = None
        # digit d of an encoding has weight p^d (int64 while every encoding
        # fits); set once the moduli have validated m
        self._digit_weights = np.array([p ** d for d in range(self._ndigits)],
                                       dtype=np.int64 if self.order <= _INT64_ORDER_BOUND else object)
        self._mul_tensor = None  # built on first use by `_structure_tensor`

    # ------------------------------------------------------------------
    # base field F_q = F_p[x]/(g)

    def _init_base_tables(self):
        """The one set of F_q tables, for every q <= `_NUMPY_TABLE_MAX` (none for a
        larger prime): `_base_tables` = (add, mul, neg, inv) with inv[0] = 0, and
        for e >= 2 the list views that the scalar ops read.  For e = 1 they are
        residues mod p.  For e >= 2 add is digitwise and a b = w^((log a + log b)
        mod (q - 1)) for a primitive w: a candidate costs e p `_qpoly_mulmod`
        products (its rows d x^i w), and each step of its walk, which stops at
        its order, sums one row entry per digit."""
        p, e, q = self.p, self.e, self.q
        self._base_tables = None
        self._base_add_tab = self._base_neg_tab = self._base_mul_tab = self._base_inv_tab = None
        if q > _NUMPY_TABLE_MAX:
            if e == 1:
                return
            raise ValueError(f"base field size q = {q} beyond supported table range")
        add = _digitwise_add_table(p, e)
        if e == 1:
            mul = np.multiply.outer(np.arange(q, dtype=np.int64), np.arange(q, dtype=np.int64)) % q
        else:
            fp, sums = make_field(p), add.tolist()
            for cand in range(2, q):
                w = tuple(_int_digits(cand, p, e))
                rows = [[_digits_int(fp._qpoly_mulmod((0,) * i + (d,), w, self.base_modulus), p)
                         for d in range(p)] for i in range(e)]
                powers, x = [1], cand
                while x != 1:
                    powers.append(x)
                    a, x = x, 0
                    for row in rows:  # x = w a
                        a, d = divmod(a, p)
                        x = sums[x][row[d]]
                if len(powers) == q - 1:
                    break
            exp = np.array(powers, dtype=np.int64)
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
        neg = (add == 0).argmax(axis=1)
        inv = (mul == 1).argmax(axis=1)  # row 0 holds no 1, so inv[0] = 0
        self._base_tables = (add, mul, neg, inv)
        if e >= 2:
            self._base_add_tab, self._base_mul_tab = sums, mul.tolist()
            self._base_neg_tab, self._base_inv_tab = neg.tolist(), inv.tolist()

    # For e = 1 the one-digit case stays inline: base_mul and base_add run per
    # step of `_qpoly_divmod`, which the modulus search runs, base_sub per
    # entry of an F_q elimination, and a helper call made the F_q polynomial
    # product in F_{5^10} ~14% slower.
    def base_add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        return self._base_add_tab[a][b]

    def base_neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return self._base_neg_tab[a]

    def base_sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        return self._base_add_tab[a][self._base_neg_tab[b]]

    def base_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self._base_mul_tab[a][b]

    def base_inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._base_inv_tab[a]

    # ------------------------------------------------------------------
    # the moduli, and the top field F_{q^m} = F_q[y]/(f)

    def _modulus(self, f, top: bool):
        """The base (over F_p, degree e) or top (over F_q, degree m) modulus:
        `f` if given and it passes `_modulus_fault`, else the first monic
        candidate that passes, counting its low coefficients up as digits in
        base p or q.  That order fixes every encoding."""
        q, d = (self.q, self.m) if top else (self.p, self.e)
        if f is not None:
            f = tuple(int(c) % q for c in f)
            fault = self._modulus_fault(f, top)
            if fault:
                raise ValueError(fault)
            return f
        # for m >= 2 the first q candidates are the binomials y^m + c; a root
        # a has a^m in F_q, so its order divides m (q - 1) < q^m - 1 and
        # none is primitive.  For e = 1 the first candidate x gives g = (0, 1).
        for low in range(q if top and d >= 2 else 0, q ** d):
            f = tuple(_int_digits(low, q, d)) + (1,)
            if not self._modulus_fault(f, top):
                return f
        raise AssertionError("no modulus found")

    def _modulus_fault(self, f, top: bool):
        """Why `f` cannot be the base or top modulus, or None: it must be
        monic of its degree d, irreducible for d >= 2 and, at the top, have
        a primitive root."""
        level, over, deg, d = ("top", "q", "m", self.m) if top else ("base", "p", "e", self.e)
        if len(f) != d + 1 or f[-1] != 1:
            return f"{level} modulus must be monic of degree {deg}"
        if d >= 2 and not (self if top else make_field(self.p))._qpoly_irreducible(f):
            return f"{level} modulus is reducible over F_{over}"
        if top and not self._root_is_primitive(f):
            return "top modulus root is not primitive"
        return None

    def _qpoly_irreducible(self, f) -> bool:
        """Ben-Or: f of degree d >= 2 over F_q is irreducible iff it has no
        factor of degree <= d/2, i.e. gcd(y^(q^i) - y, f) = 1 for i <= d/2."""
        h = y = (0, 1)
        for _ in range((len(f) - 1) // 2):
            h = self._qpoly_powmod(h, self.q, f)
            if self._qpoly_gcd(self._qpoly_sub(h, y), f) != (1,):
                return False
        return True

    def _root_is_primitive(self, f) -> bool:
        if f[0] == 0:
            return False  # the root is 0 (m = 1) or f is reducible
        if self._order_factors is None:
            self._order_factors = factorize(self.order - 1) if self.order > 2 else {}
        y = (0, 1)
        for r in self._order_factors:
            if self._qpoly_powmod(y, (self.order - 1) // r, f) == (1,):
                return False
        return True

    # polynomial helpers over F_q (dense low-to-high tuples)

    def _qpoly_sub(self, a, b):
        n = max(len(a), len(b))
        a = tuple(a) + (0,) * (n - len(a))
        b = tuple(b) + (0,) * (n - len(b))
        sub = self.base_sub
        return tuple([sub(x, y) for x, y in zip(a, b)])

    def _qpoly_mul(self, a, b):
        add, mul = self.base_add, self.base_mul
        res = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    res[i + j] = add(res[i + j], mul(x, y))
        return res

    def _qpoly_mulmod(self, a, b, f):
        return self._qpoly_divmod(self._qpoly_mul(a, b), f)[1]

    def _qpoly_powmod(self, a, n, f):
        out = (1,)
        base = a
        while n:
            if n & 1:
                out = self._qpoly_mulmod(out, base, f)
            base = self._qpoly_mulmod(base, base, f)
            n >>= 1
        return out

    def _qpoly_divmod(self, a, b):
        """(quotient, remainder) of a by b != 0, both trimmed."""
        b = _qpoly_trim(b)
        if not b:
            raise ZeroDivisionError
        add, mul = self.base_add, self.base_mul
        inv_lead = self.base_inv(b[-1])
        top = len(b) - 1
        terms = [(j, self.base_neg(x)) for j, x in enumerate(b[:top]) if x]  # -b's low terms
        a = list(a)
        q = [0] * max(0, len(a) - top)
        for k in range(len(a) - top - 1, -1, -1):
            # clear the term of y^(k + top) by adding c y^k (-b); a monic b,
            # as every modulus is, needs no scaling
            c = a[k + top]
            if c:
                if inv_lead != 1:
                    c = mul(c, inv_lead)
                q[k] = c
                for j, x in terms:
                    a[k + j] = add(a[k + j], mul(c, x))
        return _qpoly_trim(q), _qpoly_trim(a[:top])

    def _qpoly_gcd(self, a, b):
        a, b = _qpoly_trim(a), _qpoly_trim(b)
        while b:
            a, b = b, self._qpoly_divmod(a, b)[1]
        if a:
            inv = self.base_inv(a[-1])
            a = tuple(self.base_mul(c, inv) for c in a)
        return a

    # ------------------------------------------------------------------
    # element arithmetic

    def digits(self, a: int):
        """Base-q digit vector (length m) of an element encoding."""
        return _int_digits(a, self.q, self.m)

    def check_elements(self, vals, what: str = "entry") -> list:
        """`vals` as a list of ints; `ValueError` on one that is not an int
        encoding 0 .. q^m - 1, which `digits` would truncate (a plain loop)."""
        out = []
        for v in vals:
            if not (isinstance(v, (int, np.integer)) and 0 <= v < self.order):
                raise ValueError(f"{what} {v!r} is not an element of F_{self.order}")
            out.append(int(v))
        return out

    # With log tables, odd p adds by Zech logarithms: a + b = a (1 + b/a) =
    # gamma^(log a + zech[log b - log a]), and -1 = gamma^((q^m - 1)/2).
    def add(self, a: int, b: int) -> int:
        if self._p2:
            return a ^ b
        if self._zech is None:
            return _digitwise_mod_add(a, b, self.p, self._ndigits)
        if a == 0:
            return b
        if b == 0:
            return a
        n, la = self.order - 1, self._log[a]
        z = self._zech[(self._log[b] - la) % n]
        return 0 if z < 0 else self._exp[(la + z) % n]

    def neg(self, a: int) -> int:
        if self._p2:
            return a
        if self._zech is None:
            return _digitwise_mod_sub(0, a, self.p, self._ndigits)
        if a == 0:
            return 0
        n = self.order - 1
        return self._exp[(self._log[a] + n // 2) % n]

    def sub(self, a: int, b: int) -> int:
        if self._p2:
            return a ^ b
        if self._zech is None:
            return _digitwise_mod_sub(a, b, self.p, self._ndigits)
        if b == 0:
            return a
        n = self.order - 1
        if a == 0:
            return self._exp[(self._log[b] + n // 2) % n]
        la = self._log[a]
        z = self._zech[(self._log[b] + n // 2 - la) % n]
        return 0 if z < 0 else self._exp[(la + z) % n]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        if a == 1:
            return b
        if b == 1:
            return a
        if self._p2:
            return self._binary_mul(a, b)
        return self._reduce(self._spread(a) * self._spread(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        if self.m == 1:
            return self.base_inv(a)
        if self.m * self.q > _FROBENIUS_TABLE_MAX:
            return self.pow(a, self.order - 2)
        # Itoh-Tsujii: b = N_n(a) = a sigma(a) .. sigma^(n-1)(a) along the bits of m - 1
        # (N_2n = N_n sigma^n(N_n), N_(n+1) = a sigma(N_n)), a^-1 = sigma(b) / (a sigma(b))
        b, n = a, 1
        for bit in bin(self.m - 1)[3:]:
            b, n = self._frobenius_mul(b, b, n), 2 * n
            if bit == "1":
                b, n = self._frobenius_mul(a, b, 1), n + 1
        return self._frobenius_mul(self.base_inv(self._frobenius_mul(a, b, 1)), b, 1)

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("negative power of 0")
            return 1 if n == 0 else 0
        n %= self.order - 1
        if self._exp is not None:
            return self._exp[(self._log[a] * n) % (self.order - 1)]
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frobenius(self, a: int, i: int = 1) -> int:
        """a^(q^(i mod m)), the i-th power of the Frobenius x -> x^q."""
        if self._exp is not None:
            return self.pow(a, self.q ** (i % self.m))
        s = self._frobenius_sum(a, i)
        return s if self._p2 else self._reduce(s)

    def _frobenius_sum(self, a: int, i: int) -> int:
        """sigma^i(a) past the tables as the sum of its entries T_i[j][a_j] (sigma^i
        fixes F_q): XOR for p = 2, else a raw slot sum, m products to `_reduce`."""
        i %= self.m
        if i == 0:
            return a if self._p2 else self._spread(a)
        acc, q, p2 = 0, self.q, self._p2
        for row in self._frobenius_maps.get(i) or self._frobenius_rows(i):
            if not a:
                break
            acc = acc ^ row[a % q] if p2 else acc + row[a % q]
            a //= q
        return acc

    def _frobenius_mul(self, x: int, y: int, i: int) -> int:
        """x sigma^i(y) past the tables; for odd p one product of x's slot form
        and y's raw Frobenius sum, with no `_reduce` between them."""
        s = self._frobenius_sum(y, i)
        return self._binary_mul(x, s) if self._p2 else self._reduce(self._spread(x) * s)

    def _frobenius_rows(self, i: int):
        """T_i[j][c] = c * sigma^i(y^j) over j < m and c in F_q, built on first
        use; for odd p in slot form, so a sum of m entries is taken mod p once."""
        if self.m * self.q > _FROBENIUS_TABLE_MAX:
            raise ValueError(f"the Frobenius table of F_{self.q}^{self.m} needs m q = "
                             f"{self.m * self.q} entries, past the guard {_FROBENIUS_TABLE_MAX}")
        step = self.pow(self.gamma, self.q ** i)  # sigma^i(y)
        rows, v = [], 1
        for _ in range(self.m):
            rows.append([self.mul(c, v) for c in range(self.q)])
            v = self.mul(v, step)
        if not self._p2:
            rows = [[self._spread(x) for x in row] for row in rows]
        self._frobenius_maps[i] = rows
        return rows

    # Packed products.  For p = 2 an encoding is the F_2 coefficient vector of
    # its e*m digits, so addition is XOR and one carry-less pass over a's bits
    # forms a * b.  For odd p each base-p digit sits in its own w-bit slot of
    # an integer, wide enough that sums and one big-int product never carry
    # between slots; the slots are taken mod p once at the end.

    def _init_binary_packing(self):
        e = self.e
        starts = _digits_int([1] * self.m, 1 << e)
        self._digit_starts = starts              # bit 0 of every digit
        self._digit_tops = starts << (e - 1)     # bit e-1 of every digit
        self._base_low = _digits_int(self.base_modulus[:e], 2)  # g - x^e
        # c * f for every c in F_q, to clear a top digit c in one XOR
        self._scaled_modulus = [_digits_int([self.base_mul(c, fk) for fk in self.top_modulus],
                                            self.q) for c in range(self.q)]
        self._fold_shifts = tuple((e * i, e * (i - self.m))
                                  for i in range(2 * self.m - 2, self.m - 1, -1))

    def _binary_mul(self, a: int, b: int) -> int:
        e = self.e
        acc = 0
        t = 0
        while True:
            # bit e*i of at is coefficient x^t of a's digit i: add b x^t y^i
            at = a >> t & self._digit_starts
            while at:
                low = at & -at
                acc ^= b * low
                at ^= low
            t += 1
            if t == e:
                break
            # b <- x * b in every digit: shift, then reduce overflowing digits by g
            top = b & self._digit_tops
            b = (b ^ top) << 1 ^ (top >> (e - 1)) * self._base_low
        # clear digits 2m-2 .. m from the top: digit c at y^i takes c f y^(i-m)
        scaled = self._scaled_modulus
        for top, shift in self._fold_shifts:
            c = acc >> top
            if c:
                acc ^= scaled[c] << shift
        return acc

    def _init_slot_packing(self):
        p, e, m, q = self.p, self.e, self.m, self.q
        stride = 2 * e - 1
        # x^r y^i (r <= 2e - 2) of a product is slot i (2e - 1) + r, e m terms < (p - 1)^2,
        # so m + 1 products sum to <= top; each fold of `_reduce` adds a slot times digits < p
        top = (m + 1) * e * m * (p - 1) ** 2
        width = (top * (1 + (e - 1) * (p - 1)) + e * (m - 1) * (p - 1) ** 2).bit_length()
        self._slot_mask = (1 << width) - 1
        self._low_mask = (1 << width * stride * m) - 1  # the slots of y^0 .. y^(m-1)
        k = 1  # y-digits per `_spread` chunk, q^k <= _SPREAD_TABLE_MAX
        while q ** (k + 1) <= _SPREAD_TABLE_MAX:
            k += 1
        # bit offset of base-p digit u = e i + r, read high digit first by `_reduce`
        slot = [width * (u // e * stride + u % e) for u in range(e * max(m, k))]
        self._slot_shifts = slot[e * m - 1::-1]
        # slot forms of all chunks of k y-digits; one base-p digit is its own slot form
        slots = range(p)
        for shift in slot[1:k * e]:
            slots = [s | d << shift for d in range(p) for s in slots]
        self._chunk, self._chunk_width, self._chunk_slots = q ** k, width * stride * k, slots
        # (offset of slot r, slot 0 of each y-digit, x^r mod g = x^(r//2) x^(r - r//2)), e <= r < 2e - 1
        firsts = _digits_int([self._slot_mask] * (2 * m - 1), 1 << width * stride)
        self._x_folds = [(width * r, firsts, self._spread(self.base_mul(p ** (r // 2), p ** -(-r // 2))))
                         for r in range(e, stride)]
        # (shift from the previous folded slot, x^r y^i mod (g, f)) for i >= m, r < e
        self._fold_rows, prev = [], 0
        for j in range(stride * m, stride * (2 * m - 1)):
            i, r = divmod(j, stride)
            if r < e:
                row = _digits_int(self._qpoly_divmod([0] * i + [p ** r], self.top_modulus)[1], q)
                self._fold_rows.append((width * (j - prev), self._spread(row)))
                prev = j

    def _spread(self, a: int) -> int:
        """Slot form of an encoding: digit r of y-digit i in slot i (2e - 1) + r."""
        chunk, width, slots = self._chunk, self._chunk_width, self._chunk_slots
        out, shift = 0, 0
        while a:
            a, d = divmod(a, chunk)
            out |= slots[d] << shift
            shift += width
        return out

    def _reduce(self, s: int) -> int:
        """Encoding of a sum of up to m + 1 slot products (a spread addend is one):
        slot r >= e of each y-digit folds by x^r mod g, each slot of y^i (i >= m)
        by its row, and digit r of y-digit i is slot i (2e - 1) + r mod p."""
        for shift, firsts, row in self._x_folds:
            s += (s >> shift & firsts) * row
        acc, mask, p = s & self._low_mask, self._slot_mask, self.p
        for shift, row in self._fold_rows:
            s >>= shift
            if not s:
                break
            acc += (s & mask) % p * row
        out = 0
        for shift in self._slot_shifts:
            out = out * p + (acc >> shift & mask) % p
        return out

    def _slot_dot(self, pairs) -> int:
        """Sum of a b over slot-form pairs (a, b), reduced once per m products,
        each partial sum spread as the addend of the next chunk."""
        acc = 0
        for n, (a, b) in enumerate(pairs):
            if n and n % self.m == 0:
                acc = self._spread(self._reduce(acc))
            acc += a * b
        return self._reduce(acc)

    def _row_update(self, prow):
        """The update (c, xs) -> xs - c prow of `_eliminate` for odd p past the
        tables (else None): -prow is spread once, an entry is one `_reduce`."""
        if self._slot_sums:
            ys = [self._spread(self.neg(y)) for y in prow]
            return lambda c, xs: [self._reduce(self._spread(x) + cs * y)
                                  for cs in [self._spread(c)] for x, y in zip(xs, ys)]

    def _build_scalar_tables(self):
        n = self.order
        exp = [1] * (n - 1)
        g = self.gamma
        acc = 1
        for i in range(1, n - 1):
            acc = self.mul(acc, g)
            exp[i] = acc
        log = [0] * n
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log
        if not self._p2:
            # 1 + v raises v's lowest base-p digit by one mod p; 1 + gamma^i = 0
            # only at gamma^i = -1, i = (n - 1)/2
            p = self.p
            zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
            zech[(n - 1) // 2] = -1
            self._zech = zech

    # ------------------------------------------------------------------
    # base-field linear algebra

    def rank_over_base(self, vec) -> int:
        """F_q-rank of a list of F_{q^m} elements, the rank of the m x n
        matrix whose column j holds `digits(vec[j])`; `ValueError` on an
        entry that is not an element."""
        return self._element_rank(self.check_elements(vec))

    def _element_rank(self, vec) -> int:
        """`rank_over_base` of a list of checked elements.  For p = 2 an
        encoding already is its packed vector of m base-field digits, so the
        elements go to `_packed_rank` as they are; for odd p their digit
        lists go to `_eliminate`, which beats numpy on a few short rows."""
        if self._p2:
            return self._packed_rank(vec, self.m)
        rows = [self.digits(v) for v in vec]
        return len(_eliminate(rows, self.m, self.base_inv, self.base_mul, self.base_sub)[0])

    def base_matrix_rank(self, mat) -> int:
        """Rank over F_q of a matrix of base-field encodings; `ValueError`
        on an entry outside 0 .. q - 1.  The one-block case of
        `base_block_ranks`."""
        M = self._base_matrix(mat)
        return self._block_ranks(M, ((0, M.shape[1]),))[0] if M.size else 0

    def base_block_ranks(self, mat, slices):
        """F_q-ranks of the column blocks mat[:, a:b] of one matrix of
        base-field encodings, one per (a, b) in `slices`; `ValueError` on an
        entry outside 0 .. q - 1, checked once for the whole matrix."""
        return self._block_ranks(self._base_matrix(mat), slices)

    def _base_matrix(self, mat) -> np.ndarray:
        """`mat` as an array of base-field encodings (int64, or Python ints
        for primes past `_INT64_PRIME_BOUND`), checked to hold integers before a
        cast truncates one, and to lie in 0 .. q - 1: numpy would read a negative
        entry as an index from the end, and a packed one past q - 1 would spill."""
        M = np.asarray(mat)
        if M.size:
            if M.dtype.kind not in "biu" and not (
                    M.dtype.kind == "O" and all(isinstance(v, (int, np.integer)) for v in M.flat)):
                raise ValueError(f"matrix entries must be integers; got dtype {M.dtype}")
            if M.min() < 0 or M.max() >= self.q:
                bad = M[(M < 0) | (M >= self.q)].flat[0]
                raise ValueError(f"matrix entry {bad!r} is not an element of F_{self.q}")
        return M.astype(np.int64 if self.p < _INT64_PRIME_BOUND else object, copy=False)

    def _block_ranks(self, M, slices):
        """Ranks of the column blocks of a checked matrix, each the rank of
        its columns: for p = 2 the columns are packed once and each block
        ranks its slice of them with `_packed_rank`; for odd p each block
        goes to `_numpy_rank`."""
        if not self._p2:
            return [self._numpy_rank(M[:, a:b]) for a, b in slices]
        cols = self._pack_columns(M)
        return [self._packed_rank(cols[a:b], M.shape[0]) for a, b in slices]

    def _pack_columns(self, M):
        """Columns of an F_{2^e} matrix as ints, entry i in bits [e i, e i + e),
        from one int64 shift-sum per chunk of at most 62 bits."""
        e = self.e
        out = [0] * M.shape[1]
        for a, shifts in _packed_chunks(e, M.shape[0]):
            chunk = (M[a:a + len(shifts)] << shifts).sum(axis=0).tolist()
            out = chunk if a == 0 else [r | c << e * a for r, c in zip(out, chunk)]
        return out

    def _packed_rank(self, vecs, width) -> int:
        """F_q-rank, p = 2, of vectors of `width` entries packed as ints
        (entry j in bits [e j, e j + e), so adding two vectors is one XOR).

        Each vector is reduced in order by the earlier pivots.  A vector left
        nonzero is the next pivot at its lowest nonzero entry j, with the
        q-entry table T[c] = (c / lead) v of the multiples that clear entry j
        when it holds c, so reducing is v ^= T[entry j of v].  The table is
        built from the shifts x^t v, the step `_binary_mul` takes per digit,
        and from row inv(lead) of the base `mul` table.  A reduced vector is
        zero at every earlier pivot's entry, so the pivots are independent
        and the rank is their count; the loop stops once it reaches `width`.
        """
        e, q = self.e, self.q
        digit = q - 1
        if e > 1:
            tops = _packed_tops(e, width)
            low = self._base_low
            mul, inv = self._base_mul_tab, self._base_inv_tab
        pivots = []  # (bit offset of the pivot entry, table of multiples)
        for v in vecs:
            for shift, table in pivots:
                v ^= table[v >> shift & digit]
            if not v:
                continue
            shift = ((v & -v).bit_length() - 1) // e * e
            if e == 1:
                table = (0, v)
            else:
                # mults[s] = s v: bit t of s adds x^t v
                lead = v >> shift & digit
                mults = [0, v]
                for _ in range(e - 1):
                    top = v & tops
                    v = (v ^ top) << 1 ^ (top >> (e - 1)) * low
                    mults += [w ^ v for w in mults]
                table = [mults[s] for s in mul[inv[lead]]]
            pivots.append((shift, table))
            if len(pivots) == width:
                break
        return len(pivots)

    def _numpy_rank(self, M) -> int:
        """Rank of an odd-p F_q matrix by one forward elimination on a copy,
        taken with no more rows than columns.  Rows are taken in order: one
        that the earlier pivots left nonzero is the next pivot, and its first
        nonzero column is cleared from all rows below it at once, by mod-p
        arithmetic for prime q and by the F_q table gathers otherwise (the
        two cases of `base_mat_mul`).  Pivoting on rows needs no row swaps,
        and the elimination stops once the rows left are zero."""
        if M.size == 0:
            return 0
        M = M.T.copy() if M.shape[0] > M.shape[1] else M.copy()
        if self.e == 1:
            p = self.p
        else:
            add, mul, neg, inv = self._base_tables
        rank = 0
        for i, row in enumerate(M):
            col = (row != 0).argmax()
            lead = row[col]
            if not lead:
                continue
            rank += 1
            # row r below gets f_r times the pivot row, f_r = -M[r, col] / lead
            below = M[i + 1:]
            if self.e == 1:
                f = below[:, col] * (p - pow(int(lead), p - 2, p)) % p
                below[:] = (below + f[:, None] * row) % p
            else:
                f = mul[neg[below[:, col]], inv[lead]]
                below[:] = add[below, mul[f[:, None], row]]
            if not below.any():
                break
        return rank

    def base_mat_mul(self, A, B) -> np.ndarray:
        """Product of two F_q matrices of base-field encodings; `ValueError`
        on an entry outside 0 .. q - 1, checked once per matrix, or on shapes
        that do not chain."""
        A, B = self._base_matrix(A), self._base_matrix(B)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"cannot multiply a {A.shape} matrix by a {B.shape} one")
        return self._base_product(A, B)

    def _base_product(self, A, B) -> np.ndarray:
        """Product of two F_q matrices whose entries are known to be in
        range: modular matmul for prime q, on Python ints where an int64 sum
        of products could overflow, and table lookups per inner index
        otherwise."""
        if self.e == 1:
            if A.shape[1] * (self.p - 1) ** 2 < 1 << 63:
                return (A @ B) % self.p
            return ((A.astype(object) @ B.astype(object)) % self.p).astype(A.dtype)
        add_t, mul_t, _, _ = self._base_tables
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for t in range(A.shape[1]):
            out = add_t[out, mul_t[A[:, t][:, None], B[t, :][None, :]]]
        return out

    def _structure_tensor(self):
        """em x em x em array S of the F_p structure constants: S[u, v] holds
        the base-p digits of p^u p^v, where the encodings p^u are the basis
        x^r y^i (u = e i + r).  Built on first use from em (em + 1) / 2 products."""
        if self._mul_tensor is None:
            p, em = self.p, self._ndigits
            S = np.zeros((em, em, em), dtype=np.int64 if p < _INT64_ORDER_BOUND else object)
            for u in range(em):
                for v in range(u, em):
                    S[u, v] = S[v, u] = _int_digits(self.mul(p ** u, p ** v), p, em)
            self._mul_tensor = S
        return self._mul_tensor

    # ------------------------------------------------------------------
    # conjugacy structure

    def norm(self, a: int) -> int:
        """a^((q^m - 1)/(q - 1)), the norm of a down to F_q (0 for a = 0)."""
        return self.pow(a, (self.order - 1) // (self.q - 1))

    def conjugacy_classes(self):
        """Partition of the field: [{0}, C(gamma^0), ..., C(gamma^(q-2))]."""
        if self.order > _CLASS_ENUM_MAX:
            raise ValueError(f"field order {self.order} exceeds enumeration guard")
        # sigma(c) a c^-1 = c^(q-1) a; enumerate the (q-1)-power subgroup once
        kernel = set()
        c = 1
        g = self.gamma
        step = self.pow(g, self.q - 1)
        for _ in range(self.order - 1):
            kernel.add(c)
            c = self.mul(c, step)
        classes = [frozenset({0})]
        rep = 1
        for _ in range(self.q - 1):
            classes.append(frozenset(self.mul(rep, h) for h in kernel))
            rep = self.mul(rep, g)
        return classes

    # ------------------------------------------------------------------
    # randomness, serialization, numpy tables

    def random_element(self, rng) -> int:
        return rng.randrange(self.order)

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.order)

    def spec(self) -> dict:
        return {
            "p": self.p,
            "e": self.e,
            "m": self.m,
            "base_modulus": list(self.base_modulus),
            "top_modulus": list(self.top_modulus),
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FieldTower":
        return cls(spec["p"], spec["e"], spec["m"],
                   base_modulus=spec["base_modulus"], top_modulus=spec["top_modulus"])

    def numpy_tables(self):
        """(add, mul, red) as order x order arrays, built once per field; the one
        check of their guard q^m <= `_NUMPY_TABLE_MAX`.  RED[a, x] = x - (x_p / a_p) a
        for p the first nonzero base-q digit of a, and RED[0, x] = x: reducing x
        by a clears digit p of x and keeps x modulo F_q a."""
        n, q = self.order, self.q
        if n > _NUMPY_TABLE_MAX:
            raise ValueError(f"field order q^m = {n} is past the numpy-table guard "
                             f"q^m <= {_NUMPY_TABLE_MAX}")
        if self._np_tables is None:
            exp, log = np.array(self._exp), np.array(self._log)
            mul = np.zeros((n, n), dtype=np.int64)
            mul[1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (n - 1)]
            add = _digitwise_add_table(self.p, self._ndigits)
            _, bmul, bneg, binv = self._base_tables
            elems = np.arange(n)
            digits = elems // q ** np.arange(self.m)[:, None] % q  # row i: digit i
            piv = (digits != 0).argmax(axis=0)  # 0 for a = 0
            # shift[a, v] = -(v / a_p) a for v in F_q, digit by digit (row 0: binv[0] = 0)
            coef = bneg[bmul[np.arange(q), binv[digits[piv, elems]][:, None]]]
            shift = np.zeros((n, q), dtype=np.int64)
            for i in range(self.m - 1, -1, -1):
                shift = shift * q + bmul[coef, digits[i][:, None]]
            red = add[elems, shift[elems[:, None], digits[piv]]]
            # int32 halves the chunk arrays of brute force; order^2 < 2^31
            self._np_tables = tuple(t.astype(np.int32) for t in (add, mul, red))
        return self._np_tables

    def __repr__(self):
        return f"FieldTower(p={self.p}, e={self.e}, m={self.m})"

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and (self.p, self.e, self.m, self.base_modulus, self.top_modulus)
                == (other.p, other.e, other.m, other.base_modulus, other.top_modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.m, self.base_modulus, self.top_modulus))


@lru_cache(maxsize=None)
def _cached_field(p, e, m):
    return FieldTower(p, e, m)


def make_field(p: int, e: int = 1, m: int = 1) -> FieldTower:
    """The cached default tower F_p < F_{p^e} < F_{(p^e)^m}; `FieldTower`
    takes explicit moduli."""
    return _cached_field(p, e, m)


# ----------------------------------------------------------------------
# matrices over the top field (lists of lists of encodings)

def mat_mul(tower: FieldTower, A, B):
    """A B for an n x k matrix A and a k x c matrix B over F_{q^m}.

    Multiplication by a is F_p-linear on the em = e m base-p digits, so
    contracting A's digits with the structure tensor S gives every entry's
    em x em multiplication block, and A B is one (n em) x (k em) by
    (k em) x c product over F_p, taken mod p once per output digit.  Each
    partial sum is a sum of k em terms below em (p - 1)^3, so the product
    runs on float64 BLAS while k em^2 (p - 1)^3 < 2^53 and on Python ints
    past it.
    """
    n, k = len(A), len(B)
    cols = len(B[0]) if k else 0
    if any(len(r) != k for r in A) or any(len(r) != cols for r in B):
        raise ValueError(f"cannot multiply a {(n, len(A[0]) if n else k)} matrix by a {(k, cols)} one")
    if not (n and k and cols):
        return [[0] * cols for _ in range(n)]
    p, em = tower.p, tower._ndigits
    dtype = np.float64 if k * em * em * (p - 1) ** 3 < _FLOAT_EXACT_BOUND else object
    S = tower._structure_tensor().reshape(em, em * em).astype(dtype)
    # blocks[i, t, v, d]: digit d of A[i][t] p^v
    blocks = _digit_tensor(tower, A).reshape(n * k, em).astype(dtype) @ S
    lhs = blocks.reshape(n, k, em, em).transpose(0, 3, 1, 2).reshape(n * em, k * em)
    rhs = _digit_tensor(tower, B).transpose(0, 2, 1).reshape(k * em, cols).astype(dtype)
    sums = lhs @ rhs
    if dtype is np.float64:
        sums = sums.astype(np.int64)  # exact, and int64 % beats float %
    return (tower._digit_weights @ (sums % p).reshape(n, em, cols)).tolist()


def vec_mat(tower: FieldTower, v, A):
    return mat_mul(tower, [list(v)], A)[0]


def _digit_tensor(tower: FieldTower, M):
    """rows x cols x em array of the base-p digits of a matrix's entries,
    int64 for orders up to 2^63 and Python ints past them."""
    weights = tower._digit_weights
    return np.array(M, dtype=weights.dtype)[..., None] // weights % tower.p


def mat_rank(tower: FieldTower, A) -> int:
    rows = [list(r) for r in A]
    if not rows:
        return 0
    pivots, _ = _eliminate(rows, len(rows[0]), tower.inv, tower.mul, tower.sub, tower._row_update)
    return len(pivots)


def mat_det(tower: FieldTower, A) -> int:
    n = _square_size(A)
    ops = (tower.inv, tower.mul, tower.sub, tower._row_update)
    pivots, swaps = _eliminate([list(r) for r in A], n, *ops)
    if len(pivots) < n:
        return 0
    det = 1
    for lead in pivots:
        det = tower.mul(det, lead)
    return tower.neg(det) if swaps % 2 else det


def mat_inv(tower: FieldTower, A):
    n = _square_size(A)
    ops = (tower.inv, tower.mul, tower.sub, tower._row_update)
    rows = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(A)]
    if len(_eliminate(rows, n, *ops)[0]) < n:
        raise ValueError("matrix is singular")
    # rows = [U | B] with U unit upper triangular and A^-1 = U^-1 B.  Reversing
    # the row order and U's column order makes U unit lower triangular, so a
    # second forward pass ends in [I | A^-1 with its rows reversed].
    rows = [r[n - 1::-1] + r[n:] for r in reversed(rows)]
    _eliminate(rows, n, *ops)
    return [r[n:] for r in reversed(rows)]


def _square_size(A) -> int:
    if any(len(r) != len(A) for r in A):
        raise ValueError(f"need a square matrix; got rows of lengths {[len(r) for r in A]}")
    return len(A)


def _eliminate(rows, ncols, inv, mul, sub, update=None):
    """Forward Gaussian elimination on the first `ncols` columns, in place.

    `rows` holds lists over the field whose `inv`, `mul` and `sub` are given.
    Each pivot row is scaled to a leading 1 and cleared from the rows below
    it, which leaves a row-echelon form.  Returns the pivots as found, before
    scaling (their count is the rank), and the number of row swaps.  Rows
    below pivot row y take x - c y by the map `update(y)` if it returns one
    (`FieldTower._row_update`), else by `mul` and `sub`.

    It serves the F_{q^m} matrices (`mat_rank`, `mat_det`, `mat_inv`), the
    key equation of `lrs.decode` and, for odd p, the short digit lists of
    `FieldTower.rank_over_base`, and is the oracle of the packed and numpy
    F_q rank kernels.
    """
    pivots = []
    swaps = 0
    for col in range(ncols):
        top = len(pivots)
        if top == len(rows):
            break
        piv = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            swaps += 1
        lead = rows[top][col]
        scale = inv(lead)
        # rows from `top` down are zero left of `col`
        prow = [mul(scale, x) for x in rows[top][col:]]
        rows[top][col:] = prow
        clear = update and update(prow)
        for row in rows[top + 1:]:
            c = row[col]
            if c:
                row[col:] = (clear(c, row[col:]) if clear else
                             [sub(x, mul(c, y)) for x, y in zip(row[col:], prow)])
        pivots.append(lead)
    return pivots, swaps


# ----------------------------------------------------------------------
# low-level helpers

def _int_digits(v: int, base: int, length: int):
    out = []
    for _ in range(length):
        out.append(v % base)
        v //= base
    return out


def _digits_int(digits, base: int) -> int:
    out = 0
    for d in reversed(list(digits)):
        out = out * base + d
    return out


@lru_cache(maxsize=None)
def _packed_chunks(e: int, width: int):
    """(first entry, int64 column of bit offsets e i) of each chunk of at
    most 62 bits of a packed vector of `width` entries over F_{2^e}."""
    step = 62 // e
    return tuple((a, np.arange(min(step, width - a), dtype=np.int64)[:, None] * e)
                 for a in range(0, width, step))


@lru_cache(maxsize=None)
def _packed_tops(e: int, width: int) -> int:
    """Mask of bit e - 1 of each of `width` packed e-bit entries."""
    return _digits_int([1] * width, 1 << e) << (e - 1)


def _digitwise_mod_add(a: int, b: int, p: int, length: int) -> int:
    """Sum in F_p^length of two encodings read as `length` base-p digits."""
    out = 0
    shift = 1
    for _ in range(length):
        out += ((a + b) % p) * shift
        a //= p
        b //= p
        shift *= p
    return out


def _digitwise_mod_sub(a: int, b: int, p: int, length: int) -> int:
    """Difference in F_p^length of two encodings read as `length` base-p digits."""
    out = 0
    shift = 1
    for _ in range(length):
        out += ((a - b) % p) * shift
        a //= p
        b //= p
        shift *= p
    return out


def _digitwise_add_table(p: int, length: int) -> np.ndarray:
    """Addition table of F_p^length over its p^length encodings."""
    digit = np.add.outer(np.arange(p, dtype=np.int64), np.arange(p, dtype=np.int64)) % p
    add = np.zeros((1, 1), dtype=np.int64)
    for _ in range(length):
        # prepend a low digit: encoding = low + p * (higher digits)
        n = add.shape[0]
        add = (p * add[:, None, :, None] + digit[None, :, None, :]).reshape(n * p, n * p)
    return add


def _qpoly_trim(a):
    a = tuple(a)
    while a and a[-1] == 0:
        a = a[:-1]
    return a
