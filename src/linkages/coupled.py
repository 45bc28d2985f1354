"""Fully coupled dynamics: elongation transport, u-dependent off-rate,
velocity field and the position solve.

State per step: density rho, elongation u(x, a), position z with its
history ring buffer, and velocity g solving the elliptic balance

    (mu0 - eps Lap_h) g = int zeta(u) rho u da + eps dS/dt.

The age fields -- rho, u, zeta(u) and the survival factor -- live in the
cohort frame of the position history: column (head + j) % (na+1) holds the
cohort of age j, head being the history's own head, so each cohort shares
its column with its birth position z.  A step moves head back by one
instead of shifting the arrays: the oldest cohort's column takes the
newborns (u = 0 and the renewal value), every other cohort is updated where
it stands (u += da*g, rho *= exp(-da*zeta(u))), and age sums take the
weights rolled by head.  CoupledState.rho and .u build the age-ordered
fields when read.

The initial stretch u_I = (z0 - z_p(., -eps*a_j))/eps is read off the
fresh history (diagnostics.elongation_from_history): its column 0 holds z0,
so newborns are unstretched, as u(., 0, t) = 0 asks.

Sub-step order: stretch with the clamped old velocity, rates, density,
position, then the velocity, which reads rho, u, zeta and mu0 of the new
level but not z.  The density and the position step on a ring in one call
of kinetics.advance, as the weak step's do.  The survival of a step is read
at the arrival cell, on the fresh stretch: that is the endpoint of the same
characteristic, and it lets a newborn cohort feel the stretch it acquires
during the step.  z is advanced by the direct delay solve (same kernel as
the weakly coupled stepper) rather than by integrating g: where the
population dies the position equation degenerates to the elliptic balance
-Lap z = S, which the direct solve keeps enforcing while the integrated
form would freeze z at its last value.  g still feeds the elongation
transport, which preserves u >= 0 exactly whenever the initial stretch and
dS/dt are nonnegative (M-matrix maximum principle); g and the difference
quotient of z agree to first order and the match is cross-checked in the
tests.

One predicate keys the shortcuts.  A step is calm when the last load
formed was zero in every lane with every survival factor at most 1 (quiet),
the old velocity is zero and dS/dt vanishes at the new time.  Then no
cohort's stretch moves and the new load is zero in every lane: zeta and u
are unchanged, rho only shrank, rounding is monotone, so no lane can leave
zero, and newborn lanes carry u = 0.  So a calm step writes zeta on the
newborn column only, as a copy of the age-one column (the last step's
newborns, whose u = 0 no step has moved since, so their zeta is zeta(0)
bit for bit, zeta_of_u being elementwise), takes exp on the age-one column
only, and keeps its zero velocity without forming the load or solving;
that changes no bit.  The test itself reads only what it does not know: a
calm step keeps g, so g is read at the first calm step in a row only, and
the dS/dt of a load that ignores t is 0 at every t (validation checks it),
so it is not read at all.  Its cohort of
age one steps by c = exp(-da*zeta(0)), the newborns' factor.  Where every
other live cohort steps by c too (each lane of the survival ring is c or
its density is 0) and c^na does not underflow, the coupled step is the
weak step with an off-rate the same at every age: the density goes on a
kinetics.BirthRing in c mode, O(nx) a step (the births in the cohort
ring's buffer, w_j c^j in surv's, B z and the density a record reads in
the load buffer).  Once true, that stays true while the run stays calm,
as a calm step sets only the age-one column to c and a zero lane stays
zero; so it is tested at the first calm step in a row and, refused, once
every ring period after.  On the birth ring no step reads u or zeta, so
a calm step there writes no age field at all: it counts the newborn
columns it owes (CoupledState.owed), and one block write settles them
when u or zeta is read or at the first step that is not calm.  That step
rebuilds the cohort ring in the load buffer and forms every survival
factor afresh, as every step that is not calm does.  The
ring's sums round in another order: the outputs move in the last bits.
"""

import math

import numpy as np

from .diagnostics import stretch_integrals
from .errors import NonpositiveGamma1
from .kinetics import BirthRing, CohortRing, advance, birth_ring, cohort_weights, decay
from .position import solve_balance

OMEGA = 0.5  # 1D sup-norm embedding constant ||g||_inf <= omega ||g'||_2 on (0,1)


class CoupledState:
    """Coupled state at level t; coupled_step updates it in place.

    rho, u and zeta (the off-rate on u, or None) are given in age order with
    hist at head 0 -- the ring at head 0 -- or as rings at hist.head; the
    step keeps them as rings (ring, u_ring, zeta) along with the survival
    ring surv and the load buffer.  ring is a kinetics.CohortRing over rho,
    surv and agrid or, on a calm run, a kinetics.BirthRing in their buffers
    and the load's.  quiet says that the last load formed was zero in every
    lane with surv <= 1; calm counts the calm steps in a row, 0 after a step
    that is not calm (see the module docstring).  A calm step keeps g and
    the zeta of its age-one column, so a caller that writes either between
    steps clears calm and quiet.

    A calm step on the birth ring writes no age field: it counts in owed the
    newborn columns it leaves unwritten (ages 0 .. owed-1, at most a ring
    period), whose u is 0 and whose zeta is zeta0, the zeta(0) column saved
    when the ring was taken.  Reading u_ring or zeta (a record, riccati_p,
    a caller's observer) settles them in one block write, and so does the
    first step that is not calm.  The state holds no given data: the step
    reads the on-rate and the load off the run's config.Inputs.
    """

    def __init__(self, rho, u, z, g, hist, t, truncation_k, agrid, truncated=False, mu0=None, zeta=None):
        self._u, self._zeta, self.z, self.g, self.hist, self.t = u, zeta, z, g, hist, t
        self.truncation_k, self.truncated, self.mu0 = truncation_k, truncated, mu0
        self.surv, self.load = np.empty_like(rho), np.empty_like(rho)
        self.ring = CohortRing(rho, self.surv, hist, agrid)
        self.calm, self.quiet = 0, False
        self.owed, self.zeta0 = 0, None

    def settle(self):
        """Write the owed newborn columns, ages 0 .. owed-1 from hist.head on: u = 0 and zeta = zeta0."""
        owed, self.owed = self.owed, 0
        if owed:
            head, depth = self.hist.head, self.hist.depth
            for cols in (slice(head, min(head + owed, depth)), slice(0, max(head + owed - depth, 0))):
                self._u[:, cols] = 0.0
                self._zeta[:, cols] = self.zeta0[:, None]

    @property
    def u_ring(self):
        """Stretch as a cohort ring at hist.head, its owed columns settled."""
        self.settle()
        return self._u

    @property
    def zeta(self):
        """Off-rate on u as a cohort ring at hist.head, its owed columns settled."""
        self.settle()
        return self._zeta

    @zeta.setter
    def zeta(self, value):
        self.settle()
        self._zeta = value

    @property
    def rho_ring(self):
        """Density as a cohort ring at hist.head; on the birth ring, formed in the load buffer."""
        return self.ring.cohorts(self.load)

    @property
    def rho(self):
        """Density in age order, built from the ring."""
        return self.ring.density()

    @property
    def u(self):
        """Stretch in age order, built from the ring."""
        return np.roll(self.u_ring, -self.hist.head, axis=1)


def solve_velocity(rho, mu0, u, zeta_u, dSdt, eps, sgrid, w, load=None):
    """Velocity from the balance (mu0 - eps Lap_h) g = int zeta(u) rho u da + eps dS/dt.

    position.solve_balance poses it, with mu0 = rho @ w and zeta_u the
    off-rate evaluated on u; w are the age weights in the layout of the
    fields, dSdt may be None for a run without a load, and the lanes
    zeta*rho*u are formed in load if it is given.
    """
    load = np.multiply(zeta_u, rho, out=load)
    load *= u
    return solve_balance(load @ w, mu0, eps, sgrid, None if dSdt is None else eps * dSdt[1:-1])


def _take_ring(st, agrid):
    """The density of a calm state as a kinetics.BirthRing in its own buffers, or None.

    c, the survival factor of the newborns, is the age-one column of surv
    after the calm update; zeta(u) does not depend on x, so c is one
    number.  None, with the state intact, where a live cohort steps by
    another factor; None, with surv filled with c, where birth_ring refuses
    the data (c^na underflows).  The test's flags live in the idle load
    buffer, and wC takes the first (nx+2)*na entries of surv as one
    contiguous block, so that nothing field-sized is allocated.
    """
    surv, rho = st.surv, st.ring.rho
    c = float(surv[0, st.hist.head])
    flags = st.load.reshape(-1).view(np.bool_)[: 2 * rho.size].reshape(2, *rho.shape)
    off_c = np.not_equal(surv, c, out=flags[0])
    off_c &= np.not_equal(rho, 0.0, out=flags[1])
    if off_c.any() or np.any(surv[:, st.hist.head] != c):
        return None
    wC = surv.reshape(-1)[: rho.shape[0] * (rho.shape[1] - 1)].reshape(rho.shape[0], -1)
    wC[...] = c
    ring = birth_ring(rho, wC, st.hist, agrid, st.load)
    if ring is None:
        surv[...] = c
    return ring


def _leave_ring(st, agrid):
    """Back to a cohort ring built in the load buffer; the births' buffer becomes the load."""
    ring = st.ring
    st.ring, st.load = CohortRing(ring.cohorts(st.load), st.surv, st.hist, agrid), ring.births


def coupled_step(st, inputs, sgrid, agrid):
    """Advance the coupled state st one step in place and return it.

    inputs is the run's config.Inputs: its rate, eps, and the on-rate and
    load of the new level.  The old velocity is clamped at +-truncation_k
    before it stretches the bonds; st.truncated flags whether the new
    velocity exceeds the threshold (it never should once the threshold is
    above the Riccati bound).  The density steps on st.ring, the birth ring
    on a calm run; a calm step takes the shortcuts of the module docstring.
    """
    eps = inputs.eps
    t_new = st.t + eps * agrid.da
    k = st.truncation_k
    beta, den, eps_S = inputs.at(t_new, st.z)  # a threshold on-rate reads the old z
    dSdt = inputs.ddt(t_new)
    hist, u = st.hist, st._u
    old, new = hist.head, (hist.head - 1) % hist.depth  # the columns of ages 1 and 0 after the step
    calm = st.quiet and (st.calm or not st.g.any()) and (inputs.steady or not np.any(dSdt))
    st.calm = st.calm + 1 if calm else 0
    if calm and isinstance(st.ring, BirthRing):
        st.owed = min(st.owed + 1, hist.depth)  # the newborns' u = 0 and zeta(0), settled when read
    elif calm:
        u[:, new] = 0.0
        st._zeta[:, new] = st._zeta[:, old]  # the last newborns' zeta(0)
        decay(st._zeta[:, old], agrid.da, out=st.surv[:, old])
        if st.calm % hist.depth == 1:  # the first calm step, then once a ring period
            ring = _take_ring(st, agrid)
            if ring is not None:
                st.ring, st.zeta0 = ring, st._zeta[:, new].copy()
    else:
        st.settle()
        if isinstance(st.ring, BirthRing):
            _leave_ring(st, agrid)
        g_used = np.clip(st.g, -k, k) if math.isfinite(k) else st.g
        u += agrid.da * g_used[:, None]  # g vanishes at the Dirichlet nodes: their rows stay 0
        u[:, new] = 0.0
        st._zeta = inputs.rate.zeta_of_u(u)
        decay(st._zeta, agrid.da, out=st.surv)
    st.z, st.mu0 = advance(st.ring, beta, den, eps, sgrid, eps_S)
    if not calm:  # the velocity reads rho, u, zeta and mu0 of the new level, not z
        w = cohort_weights(agrid.w, new)
        st.g = solve_velocity(st.ring.rho, st.mu0, u, st._zeta, dSdt, eps, sgrid, w, load=st.load)
        st.quiet = not st.g.any() and not st.load.any() and st.surv.max() <= 1.0
    st.t = t_new
    st.truncated = not calm and bool(np.abs(st.g).max() > k)  # a calm step keeps its zero g, and k > 0
    return st


def riccati_gamma2(p0, gamma1, h, eps):
    """Upper bound for p(t) = int int zeta(u)|u| rho dx da.

    The comparison equation eps p' + gamma1 p^2 <= h + OMEGA p / eps keeps p
    below max(p0, (OMEGA + sqrt(OMEGA^2 + 4 h gamma1 eps^2)) / (2 eps gamma1)).
    """
    if gamma1 <= 0:
        raise NonpositiveGamma1(f"gamma1 = {gamma1:g}")
    root = (OMEGA + math.sqrt(OMEGA**2 + 4.0 * h * gamma1 * eps**2)) / (2.0 * eps * gamma1)
    return max(p0, root)


def riccati_bound(rho, u, zeta_u, inputs, final_time, sgrid, w, work):
    """Riccati data measured from the initial state: (gamma2, dS_norm).

    q0 and p0 come from the records' pass on zeta_u (zeta on u) and work,
    two field buffers (run_coupled lends the state's surv and load, which
    its first step writes before it reads them).
    dS_norm is the largest L2 norm of dS/dt (read off the run's
    config.Inputs) over five sample times in [0, final_time], 0 for a
    steady load; gamma2 bounds p(t) for the whole run.  zeta(0) is read
    off the off-rate at a Dirichlet node, where u = 0.
    """
    q0, p0 = stretch_integrals(rho, u, zeta_u, sgrid, w, work)[:2]
    times = () if inputs.steady else np.linspace(0.0, final_time, 5)
    dS_norm = max((float(np.sqrt((inputs.ddt(t) ** 2) @ sgrid.quad_weights())) for t in times), default=0.0)
    if q0 > 0.0:
        gamma1 = 1.0 / q0
        h = OMEGA * dS_norm * (2.0 * inputs.rate.zeta_lip * q0 + zeta_u[0, 0])
        return riccati_gamma2(p0, gamma1, h, inputs.eps), dS_norm
    return max(p0, OMEGA * dS_norm), dS_norm


def riccati_p(st, sgrid, agrid):
    """The Riccati quantity p = int int zeta(u)|u| rho dx da of the coupled state st.

    A quiet state's p is 0.0, taken without a pass.  quiet is set only by a
    step that is not calm, where every lane of the load zeta*rho*u was 0; a
    calm step moves no stretch, shrinks rho by factors at most 1 and writes
    newborns with u = 0, and rounding is monotone, so a zero lane stays
    zero.  The birth ring is entered on calm steps only and left on the
    first that is not, so its states are quiet.  p's lanes (|u|*rho)*zeta,
    the products in another order, could differ from 0 only at the underflow
    edge, by a subnormal.  Otherwise p has the lanes, sums and bits of
    diagnostics.stretch_integrals, formed in st.load, which no step reads
    between steps.
    """
    if st.quiet:
        return 0.0
    lanes = np.abs(st.u_ring, out=st.load)
    lanes *= st.ring.rho
    lanes *= st.zeta
    return float((lanes @ cohort_weights(agrid.w, st.hist.head)) @ sgrid.quad_weights())
