"""Age-structured bond-density evolution and its closed forms.

The density rho(x, a, t) obeys transport in age with off-rate decay and the
renewal boundary rho(x, 0, t) = beta (1 - mu0), mu0 being the total
population.  With dt = eps*da the update is an exact shift along the
characteristic with per-cell exponential decay, which keeps the field
nonnegative for any size of zeta*da.  The density steppers shift no array:
they keep the cohort of age j in column (head + j) % (na+1), head being the
position history's, multiply each cohort where it stands and write the
newborns into the oldest cohort's column (CohortRing).

The renewal value is coupled to mu0 at the *new* time through the a=0
trapezoid weight; that self-reference is solved algebraically (renew),

    rho[0] = beta (1 - m) / (1 + beta w0),   m = sum_{j>=1} w_j rho[j],

so the saturation bound mu0 < 1 is preserved exactly.  advance runs one
level of either model: the ring's sums, renew, the position solve, then the
ring's push, which pushes z onto its history.  Several rings on one age grid
(Rows), each with its own history and head, step as the rows of one such
level.

For an off-rate that ignores t every cohort is its birth value times a
fixed product, rho^n[:, j] = C_j B^{n-j} (C_j: the survival factors of ages
0..j-1 multiplied in turn; B^{-m} = rho_I[:, m] / C_m for the initial
cohorts).  BirthRing marches B and B z instead of the density, so a step
writes O(nx) numbers; renew turns its two lagged sums, as CohortRing's, into
the next B.  The rings take the position history's head, and birth_ring
builds one from a cohort ring at any head (the coupled step does, mid-run).
Where the off-rate is the same at every age of a lane (C_j = c^j), the
lagged sums are running sums, O(nx) work a step, read afresh off the rings
each time the head comes back to 0, and B z is formed where it is read
instead of stored.  Otherwise a step reads both rings, split once at the
head, against the same two slices of the weights with np.vecdot."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MassAtLeastOne, NegativeDensity, NonfiniteValue
from .position import delay_quadrature


def init_density(fn, sgrid, agrid):
    """Sample the initial age distribution rho_I(x, a) onto the (nx+2, na+1) grid.

    Rejects negative values and per-x mass >= 1.  A vanishing field is legal
    (bond-free start); validate_config warns about it.
    """
    vals = np.asarray(fn(sgrid.x[:, None], agrid.a[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (sgrid.n_nodes, agrid.n_nodes)).copy()
    if not np.all(np.isfinite(vals)):
        raise NonfiniteValue("initial density has non-finite entries")
    if np.min(vals) < 0:
        raise NegativeDensity(f"min rho_I = {np.min(vals):g}")
    mu0 = vals @ agrid.w
    if np.max(mu0) >= 1.0:
        raise MassAtLeastOne(f"max mu0(x, 0) = {np.max(mu0):.6g}")
    return vals


def survival(zeta_values, agrid, out=None):
    """Per-cell survival factor exp(-da*zeta) of one shift, shape (rows, na), written into out if given.

    zeta_values is the prescribed off-rate on the (x, a) grid or one row
    of it, sampled at the current time and read at the departure cell j-1.
    """
    return decay(zeta_values[:, :-1], agrid.da, out)


def decay(zeta_values, da, out=None):
    """exp(-da*zeta) lane by lane, written into out if given."""
    if not np.all(np.isfinite(zeta_values)):
        raise NonfiniteValue("off-rate field has non-finite entries")
    x = np.multiply(zeta_values, -da, out=out)
    return np.exp(x, out=x)


def cohort_weights(w, head):
    """The age weights w in the layout of a cohort ring at head: out[(head + j) % n] = w[j]."""
    return np.concatenate((w[w.size - head :], w[: w.size - head]))


def renew(beta_values, den, m, w0):
    """Birth value and mu0 of the next level from its renewal mass m and den = 1 + beta_values*w0 (closed form)."""
    births = beta_values * (1.0 - m) / den
    return births, w0 * births + m


def advance(ring, beta_values, den, op, eps_S):
    """One level of density and position on ring (either form), z solving (m - eps Lap_h) z = q + eps S; returns (z, mu0).

    beta_values, den (see renew) and eps_S, eps*S on the full grid or
    None, are the level's given data (config.Inputs.at), and op is the
    run's elliptic.Operator, kappa = eps.  On Rows, m, q, z and mu0 have
    one row per ring, in one renew and one position solve; op then has a
    column of scales (shape (rows, 1)), and the data are rows or broadcast
    against them.  The ring's push moves its history's head.
    """
    m, q = ring.sums()
    births, mu0 = renew(beta_values, den, m, ring.agrid.w[0])
    z = op.solve(m, q, eps_S, clamped=True)
    ring.push(births, z)
    return z, mu0


class CohortRing:
    """The density rho as a cohort ring at the head of hist; surv is the survival factor of the next step."""

    def __init__(self, rho, surv, hist, agrid):
        self.rho, self.surv, self.hist, self.agrid = rho, surv, hist, agrid

    def sums(self):
        """Age every cohort but the oldest by surv in place; m and q of the next level, q off hist.buf in place.

        surv is in age order (na columns; one row or a row per lane) or in rho's layout (the coupled step's).
        """
        rho, surv, head = self.rho, self.surv, self.hist.head
        if surv.shape == rho.shape:  # the oldest cohort's column is written over by push
            rho *= surv
        else:
            cut = min(surv.shape[1], rho.shape[1] - head)
            rho[:, head : head + cut] *= surv[:, :cut]
            rho[:, : surv.shape[1] - cut] *= surv[:, cut:]
        new = (head - 1) % rho.shape[1]
        lag = cohort_weights(self.agrid.w, new)
        lag[new] = 0.0
        return rho @ lag, delay_quadrature(lag, rho, self.hist.buf)

    def push(self, births, z):
        """Push z onto hist and write the newborns into the column it took, the oldest cohort's."""
        self.hist.push(z)
        self.rho[:, self.hist.head] = births

    def density(self):
        """rho^n in age order."""
        return np.roll(self.rho, -self.hist.head, axis=1)

    def cohorts(self, out):
        """rho^n as a cohort ring at hist.head: the ring itself, out unwritten."""
        return self.rho


class BirthRing:
    """Birth values B and products B z of the levels n, n-1, ..., n-na.

    Both rings have the layout of the density and the head of the position
    history hist: column hist.head holds level n, the next columns
    (cyclically) the older levels.  wC[:, j-1] = w_j C_j weighs age j >= 1,
    on one row that broadcasts over the lanes or on a row per lane.  c, if
    given, is the survival factor of each age cell, C_j = c^j: the lagged
    sums are then kept as running sums in acc, read and rolled by
    RunningSums, and B z is not stored but formed where it is read, at two
    columns a step or, for a full read, eight rows at a time (_reread).
    The ring may be built at any head of hist.
    """

    def __init__(self, wC, births, hist, agrid, c=None):
        self.wC, self.births, self.hist, self.agrid, self.c = wC, births, hist, agrid, c
        if c is None:
            self.products = births * hist.buf
        else:
            # the weights of RunningSums, w_na C_na, w_{na-1} C_{na-1}, c and w_1 C_1,
            # each laid out for both sums at once
            cols = wC[:, -1], wC[:, wC.shape[1] - 2], c, wC[:, 0]
            self.coef = [np.broadcast_to(col, (2, births.shape[0])).copy() for col in cols]
            # the running sums T, the edge and the head, each of B and of B z
            self.acc = np.empty((3, 2, births.shape[0]))
            self._edge()
            self._reread()
            self.running = RunningSums(self.acc, self.coef)

    def sums(self):
        """m = sum_{j>=1} w_j C_j B^{n+1-j} and q, the same sum over the ring of B z.

        With c, each is its running sum over j < na plus the term of age na
        (RunningSums.lagged).  Otherwise both rings are read in full (_read).
        """
        if self.c is None:
            return self._read(self.wC, (self.births, self.products))
        return self.running.lagged()

    def push(self, births, z):
        """Push z onto hist and write B and B z of the new level into the column it took."""
        self.hist.push(z)
        self.births[:, self.hist.head] = births
        if self.c is None:
            self.products[:, self.hist.head] = births * z
        else:
            self.running.update([self], births, z)

    def _read(self, wC, rings):
        """sum_{j>=1} wC[:, j-1] r[:, (head + j - 1) % (na+1)] for each ring r.

        The head splits each ring once: the columns from head on and the
        wrapped columns from 0, each read against its slice of wC with
        np.vecdot.
        """
        head = self.hist.head
        cut = min(wC.shape[1], self.births.shape[1] - head)
        lo, hi = wC[:, :cut], wC[:, cut:]
        sums = [np.vecdot(lo, r[:, head : head + cut]) for r in rings]
        if hi.shape[1]:
            for s, r in zip(sums, rings):
                s += np.vecdot(hi, r[:, : hi.shape[1]])
        return sums

    def _edge(self):
        """B and B z of level n+1-na, which the next sums weigh by w_na C_na, into acc[1]; each B z has the bits of a stored product.

        True where RunningSums.update reads the running sums afresh
        (_reread) after the roll: at head 0, and with na = 1, where T is 0.
        """
        head, k = self.hist.head, self.wC.shape[1] - 1
        tail = (head + k) % self.births.shape[1]  # level n+1-na
        b = self.births[:, tail]
        self.acc[1, 0] = b
        np.multiply(b, self.hist.buf[:, tail], out=self.acc[1, 1])
        return head == 0 or k == 0

    def _reread(self):
        """The running sums T of both rings read afresh (_read), which bounds the rounding to one ring period.

        B z is formed eight rows at a time in one (8, na+1) block, so no
        buffer of a re-read is field-sized; np.vecdot sums each row by
        itself, so the sums have the bits of one pass over the whole ring.
        """
        births, wC = self.births, self.wC[:, :-1]
        block = np.empty((min(8, births.shape[0]), births.shape[1]))
        for i in range(0, births.shape[0], 8):
            b = births[i : i + 8]
            products = np.multiply(b, self.hist.buf[i : i + 8], out=block[: b.shape[0]])
            self.acc[0, :, i : i + 8] = self._read(wC[i : i + 8] if wC.shape[0] > 1 else wC, (b, products))

    def density(self):
        """rho^n[:, j] = C_j B^{n-j} in age order."""
        cut = self.births.shape[1] - self.hist.head
        return self._fill(np.empty_like(self.births), 0, slice(1, cut), slice(cut, None))

    def cohorts(self, out):
        """rho^n as a cohort ring at hist.head, column (head + j) % (na+1) holding age j, written into out."""
        head = self.hist.head
        return self._fill(out, head, slice(head + 1, None), slice(0, head))

    def _fill(self, rho, newborn, newer, older):
        """rho^n into rho: age 0 at column newborn, the ages after the head at newer, the wrapped ones at older."""
        head = self.hist.head
        cut = self.births.shape[1] - head
        rho[:, newborn] = self.births[:, head]
        np.divide(self.wC[:, : cut - 1], self.agrid.w[1:cut], out=rho[:, newer])
        np.divide(self.wC[:, cut - 1 :], self.agrid.w[cut:], out=rho[:, older])
        rho[:, newer] *= self.births[:, head + 1 :]
        rho[:, older] *= self.births[:, :head]
        return rho


def birth_ring(rho, surv, hist, agrid):
    """BirthRing of the density rho, a cohort ring at the head of hist (age order at head 0).

    surv, the survival factor of every step in age order, is consumed: it
    becomes wC in place, and rho the birth ring.  surv has a row per lane
    or, for an off-rate the same at every x, one row (1, na) that
    broadcasts over the lanes.  None, with rho intact, where the closed
    form would lose the density: a product C_j zero or subnormal, or a
    birth value rho / C_j that may overflow.  Where every column of surv
    equals the first (an off-rate the same at every age), the ring takes
    c = surv[:, 0] and keeps its lagged sums in O(nx) a step.
    """
    c = surv[:, 0].copy() if np.all(surv.min(axis=1) == surv.max(axis=1)) else None
    C = np.cumprod(surv, axis=1, out=surv)
    c_min = float(np.min(C))
    if c_min < np.finfo(float).tiny or not math.isfinite(float(np.max(rho)) / c_min):
        return None
    head = hist.head
    cut = rho.shape[1] - head
    np.divide(rho[:, head + 1 :], C[:, : cut - 1], out=rho[:, head + 1 :])
    np.divide(rho[:, :head], C[:, cut - 1 :], out=rho[:, :head])
    return BirthRing(np.multiply(C, agrid.w[1:], out=C), rho, hist, agrid, c)


class RunningSums:
    """The running sums acc of a BirthRing with c, or of Rows of them, through flat 1-D views formed once.

    acc holds T = sum_{j=1}^{na-1} w_j C_j B^{n+1-j}, the edge (B and B z
    of level n+1-na) and the head (of level n), each of B and of B z:
    shape (3, 2, nx+2), or (3, 2, rows, nx+2) for Rows; coef holds the
    weights of BirthRing in the shape of one of the three.  The sums m and
    q are written into one buffer, which the next read writes over.
    """

    def __init__(self, acc, coef):
        self.T, self.edge, self.head = acc.reshape(3, -1)
        self.T_births, self.born, self.born_z = self.T[: self.T.size // 2], *acc[2]
        self.w_na, self.w_tail, self.c, self.w_head = (col.ravel() for col in coef)
        s, self.tmp = np.empty(acc.shape[1:]), np.empty(self.T.size)
        self.flat, self.m, self.q = s.reshape(-1), *s

    def lagged(self):
        """m and q of the next level: T + w_na C_na (B, B z) of level n+1-na."""
        np.multiply(self.edge, self.w_na, out=self.flat)
        self.flat += self.T
        return self.m, self.q

    def update(self, rings, births, z):
        """The sums of level n from those of level n-1, in place, rings having just written births.

        Each ring takes its edge, the head births and births*z, and, with
        C_j = c^j and equal interior weights, T := c (T - w_{na-1} C_{na-1}
        edge) + w_1 C_1 head, in O(nx); a ring back at head 0 then reads its
        T afresh, over the roll.  The births' sum is clamped at 0: a lane
        dying out leaves no residue below 0.
        """
        fresh = [ring for ring in rings if ring._edge()]
        np.copyto(self.born, births)
        np.multiply(births, z, out=self.born_z)
        T = self.T
        T -= np.multiply(self.w_tail, self.edge, out=self.tmp)
        T *= self.c
        T += np.multiply(self.w_head, self.head, out=self.tmp)
        np.maximum(self.T_births, 0.0, out=self.T_births)
        for ring in fresh:
            ring._reread()


class Rows:
    """Rings on one age grid, each with its own history and head, stepped as the rows of a stack.

    advance takes it as a ring: sums stacks the rings' m and q by row, and
    push pushes row i of z and of the births onto ring i.  Where every ring
    is a BirthRing with c, their running sums live in one array (each
    ring's acc a view of it), read and rolled by one RunningSums in one
    pass over all rows; each ring still writes its own columns, and reads
    itself afresh when its head comes back to 0, but no longer sums or
    rolls on its own.  Otherwise each ring sums and pushes on its own.
    """

    def __init__(self, rings):
        self.rings, self.agrid, self.running = rings, rings[0].agrid, None
        if all(isinstance(ring, BirthRing) and ring.c is not None for ring in rings):
            acc = np.stack([ring.acc for ring in rings], axis=2)
            for i, ring in enumerate(rings):
                ring.acc, ring.running = acc[:, :, i], None
            self.running = RunningSums(acc, [np.stack(col, axis=1) for col in zip(*(ring.coef for ring in rings))])

    def sums(self):
        """m and q of every ring, one row each."""
        if self.running is not None:
            return self.running.lagged()
        m, q = zip(*(ring.sums() for ring in self.rings))
        return np.stack(m), np.stack(q)

    def push(self, births, z):
        """Push row i of z and of births onto ring i; with one RunningSums, one update rolls every row."""
        for ring, row, z_row in zip(self.rings, births, z):
            if self.running is None:
                ring.push(row, z_row)
            else:
                ring.hist.push(z_row)
                ring.births[:, ring.hist.head] = row
        if self.running is not None:
            self.running.update(self.rings, births, z)


@dataclass
class LimitDensity:
    """Zero-scale density profile rho0(a) with its first two moments."""

    rho0: np.ndarray  # (..., na+1)
    mu00: np.ndarray
    mu10: np.ndarray


def age_profile(zeta0_values, agrid):
    """E(a) = exp(-int_0^a zeta0) of limit_density, with K = int E da and int a E da.

    These depend on the off-rate alone, so a caller whose off-rate ignores
    t forms them once.  The trapezoid panels, their running sum and exp
    are formed in E itself; the panels carry the minus sign, which negates
    each partial sum exactly.
    """
    zeta0_values = np.asarray(zeta0_values, dtype=float)
    E = np.empty(zeta0_values.shape)
    E[..., 0] = 0.0
    panels = np.add(zeta0_values[..., 1:], zeta0_values[..., :-1], out=E[..., 1:])
    panels *= -0.5 * agrid.da
    np.exp(np.cumsum(E, axis=-1, out=E), out=E)
    return E, E @ agrid.w, E @ (agrid.w * agrid.a)


def limit_density(beta, zeta0_values, agrid, profile=None, out=None):
    """Closed-form limit profile for prescribed rates at one instant.

    With E(a) = exp(-int_0^a zeta0) and K = int E da:

        mu00 = beta K / (1 + beta K),
        rho0(a) = beta (1 - mu00) E(a),
        mu10 = beta (1 - mu00) int a E(a) da.

    zeta0_values has age as its last axis; beta broadcasts against the
    leading axes.  profile, if given, is age_profile(zeta0_values, agrid)
    formed earlier, and rho0 is written into out if given.
    """
    E, K, aE = age_profile(zeta0_values, agrid) if profile is None else profile
    beta = np.asarray(beta, dtype=float)
    mu00 = beta * K / (1.0 + beta * K)
    amp = beta * (1.0 - mu00)
    rho0 = np.multiply(amp[..., None], E, out=out)
    return LimitDensity(rho0=rho0, mu00=mu00, mu10=amp * aE)
