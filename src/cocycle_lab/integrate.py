"""Adaptive embedded Runge-Kutta integration for complex-valued states.

A single Dormand-Prince 8(5,3) pair, DOP853 (Prince & Dormand, J. Comput.
Appl. Math. 7, 1981; Hairer, Norsett & Wanner, *Solving ODEs I*, secs. II.5
and II.10), drives both the semigroup flow and the cocycle evolution
solver.  States are complex ndarrays; the right-hand side receives
``(t, y)`` and returns an array of the same shape.

The step sequence does not depend on the output times: only the last step is
clipped, to land on the final time.  A state at an output time strictly
inside an accepted step comes from the pair's order 7 continuous extension
over that step's stages, so output times cost no steps.  A step makes eleven
right-hand-side calls.  An accepted step makes a twelfth, at its end, once
the error test and the guard have accepted that state; it is the next
step's first stage (first same as last).  The extension costs three more,
made once on each accepted step that holds an output time.  The first step
comes from Hairer's starting-step rule (*Solving ODEs I*, sec. II.4), which
costs one probe call.

A skew product y = (u, G), u' = rhs(t, u) and G' = B(u) G, passes a
``Fiber``: the base u = y[:size] never depends on G, so a step forms its
eleven base stage inputs first, calling ``rhs`` on u alone at each, then
makes one ``lift`` call on all eleven base states, which evaluates B, and
forms the fiber stages in turn.  The first stage, the probe, the end stage
and the extension's three stages take one ``lift`` call each, so an
integration calls ``lift`` 2 + steps + accepted steps + extended steps
times, and ``rhs`` as often as without a fiber.  Without a fiber the base
is all of y.

A step's stages live in one complex array of shape (16,) + y.shape: twelve
for the step, its end stage, and three for the extension.  The tableau's
weights are real, so every stage input, the eighth-order state, the error
estimates and each interpolated state is one real matrix-vector product of
a weight row, with the step size folded in, and that array viewed as real
numbers.  An integration builds one plan (``_Plan``) and every step reuses
it: the stage array, h _A refilled in place, and for each stage row its
weight-row, stage and input views, for the base and the fiber, so a stage
builds no view and allocates no array.  The base stage inputs are the rows
of one array, which ``lift`` receives whole, and the fiber stage inputs
share one buffer, overwritten stage by stage.  The integrator owns all of
them, so neither ``rhs``, nor ``lift``, nor the function ``lift`` returns
may keep an array argument past its call (returning it is fine: its value
is copied into the stage array).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainEscapeError, NoConvergenceError

# DOP853 tableau.  Stage i is taken at t + _C[i] h; row i of _A weights
# stages 0 .. i-1 in its input.  Rows 1-11 give the step's stages.  Row 12
# holds the eighth-order weights, so stage 12 is taken at the new state
# itself.  Rows 13-15 give the three extra stages of the dense output.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])
_A = np.zeros((16, 16))
for _i, _row in enumerate((
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
    [5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2],
    [5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
     -8.298e-3],
    [3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
     -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1],
    [-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0,
     -4.69762141536116384314449447206, 7.68342119606259904184240953878,
     4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0,
     -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138],
), start=1):
    _A[_i, :_i] = _row
_B = _A[12, :12]
# The fifth- and third-order error estimates: weight rows over the twelve
# stages (the end stage does not enter them).  The third-order one is _B
# less Hairer's weights bhh at stages 0, 8 and 11.
_ERR = np.array([
    [0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
     -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
     0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
     0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
     -0.2235530786388629525884427845e-1],
    _B - np.array([0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                   0.733846688281611857341361741547, 0.0, 0.0,
                   0.220588235294117647058823529412e-1]),
])
# Continuous extension, order 7: y(t + theta h) = y + h sum_i k_i w_i(theta)
# with w(theta) = basis(theta) @ _DENSE over all sixteen stages and the
# basis theta, theta s, theta^2 s, theta^2 s^2, theta^3 s^2, theta^3 s^3,
# theta^4 s^3 (s = 1 - theta).  Row 0 is _B, so theta = 1 gives the new
# state; rows 1 and 2 match the right-hand side at both ends of the step;
# rows 3-6 are Hairer's.
_B16 = np.concatenate([_B, np.zeros(4)])
_ENDS = np.eye(16)[[0, 12]]
_DENSE = np.array([
    _B16,
    _ENDS[0] - _B16,
    2.0 * _B16 - _ENDS[0] - _ENDS[1],
    [-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0,
     0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 200_000


class Fiber(NamedTuple):
    """The linear fiber G' = B(u) G of a skew product y = (u, G) whose base
    u = y[:size] solves u' = rhs(t, u) alone.  ``lift(u)``, for base states
    stacked in rows of shape (r, size), returns ``times(i, g, out)``, which
    writes B(u[i]) g, a derivative of the fiber state g = y[size:], into
    ``out``.  ``times`` receives g and out in ``shape`` (flat by default);
    out is a view of the integration's stage array and g of a buffer the
    next stage overwrites, so ``times`` keeps neither."""

    size: int
    lift: Callable
    shape: tuple = (-1,)


def _combine(w, stages, shape):
    """sum_i w[..., i] stages[i] as one real matrix product: the weights
    are real, so they act on the real and imaginary parts alike.  A weight
    matrix of r rows gives r states, shape (r,) + shape."""
    n = w.shape[-1]
    flat = stages[:n].reshape(n, -1).view(float)
    return (w @ flat).view(complex).reshape(w.shape[:-1] + shape)


def _rms_norm(v) -> float:
    return float(np.linalg.norm(v)) / math.sqrt(max(v.size, 1))


def _derivative(rhs, fiber, t, y, out):
    """The whole right-hand side at the one state y, written into ``out``:
    rhs(t, y) without a fiber; with one, rhs on the base and one lift call
    for the fiber."""
    if fiber is None:
        out[...] = rhs(t, y)
    else:
        m = fiber.size
        out[:m] = rhs(t, y[:m])
        fiber.lift(y[None, :m])(0, y[m:].reshape(fiber.shape), out[m:].reshape(fiber.shape))
    return out


class _Plan:
    """What every step of one integration reuses, built once for states of
    ``shape``: the stage array ``k``, h _A, refilled in place each step,
    and for stage rows 1-11 (a step) and 13-15 (the extension) the weight
    row (h _A)[i, :i], the stages it weights viewed as reals, the buffer
    the stage input is formed in, the stage it fills and its time c_i, for
    the base and, with a ``fiber``, for the fiber, whose input buffer and
    stages are viewed in ``fiber.shape``; and the error test's work arrays."""

    def __init__(self, shape, fiber=None):
        self.fiber, self.ha = fiber, np.empty_like(_A)
        self.k = np.empty((16,) + shape, dtype=complex)
        self.m = m = shape[0] if fiber is None else fiber.size
        k_base = self.k[:, :m]
        base_real = k_base.reshape(16, -1).view(float)
        u = np.empty((14,) + k_base.shape[1:], dtype=complex)
        u_real = u.reshape(14, -1).view(float)
        rows = [*range(1, 12), *range(13, 16)]
        base = [(self.ha[i, :i], base_real[:i], u_real[r], u[r], k_base[i], float(_C[i]))
                for r, i in enumerate(rows)]
        self.u, self.base = (u[:11], u[11:]), (base[:11], base[11:])
        if fiber is not None:
            k_fiber = self.k[:, m:]
            fiber_real, g = k_fiber.view(float), np.empty(k_fiber.shape[1:], dtype=complex)
            self.g_real, self.g = g.view(float), g.reshape(fiber.shape)
            rows = [(self.ha[i, :i], fiber_real[:i], k_fiber[i].reshape(fiber.shape)) for i in rows]
            self.fiber_rows = rows[:11], rows[11:]
        self.scale, self.ratio, self.r = np.empty(shape), np.empty(shape), np.empty((2,) + shape)
        self.positive = np.empty(shape, dtype=bool)


def _stages(rhs, t, y, h, plan, part):
    """Fill stages 1-11 (``part`` 0) or 13-15 (``part`` 1) of plan.k, whose
    earlier stages are filled, with plan.ha = h _A.  The base stage inputs
    y + ha[i] . k come first, each passed to rhs, then, with a fiber, one
    lift call on all of them and the fiber stage inputs in turn."""
    base = y[: plan.m]
    for w, stages, real, state, out, c in plan.base[part]:
        np.matmul(w, stages, out=real)
        state += base
        out[...] = rhs(t + c * h, state)
    if plan.fiber is None:
        return
    times, g0, g = plan.fiber.lift(plan.u[part]), y[plan.m :].reshape(plan.fiber.shape), plan.g
    for r, (w, stages, out) in enumerate(plan.fiber_rows[part]):
        np.matmul(w, stages, out=plan.g_real)
        g += g0
        times(r, g, out)


def _step(rhs, t, y, h, k1, plan):
    """One DOP853 step from (t, y) with first stage k1, the right-hand side
    at (t, y): returns (the eighth-order state, the unscaled fifth- and
    third-order error estimates stacked with shape (2,) + y.shape, the
    stages stacked in one array of shape (16,) + y.shape, plan.k, which k1
    may be a row of); ``plan`` is a ``_Plan`` for y's shape.  Stages 0-11
    are filled.  Stage 12, at (t + h, y_new), is left to the caller once it
    accepts y_new, and rows 13-15 to ``_extend``.  Stage input i is
    bit for bit y + (h _A[i, :i]) . k[:i], and no callee may keep its
    argument."""
    plan.k[0] = k1
    np.multiply(_A, h, out=plan.ha)
    _stages(rhs, t, y, h, plan, 0)
    y_new = _combine(plan.ha[12, :12], plan.k, y.shape)
    y_new += y
    return y_new, _combine(h * _ERR, plan.k, y.shape), plan.k


def _error_norm(err, y_new, tol, plan) -> float:
    """The largest entry of r5^2 / hypot(r5, 0.1 r3), where r5 and r3 are
    the fifth- and third-order estimates scaled by tol (1 + |y_new|),
    formed in ``plan``'s work arrays."""
    scale, r, ratio = plan.scale, plan.r, plan.ratio
    np.abs(y_new, out=scale)
    scale += 1.0
    scale *= tol
    np.abs(err, out=r)
    r /= scale
    r5, r3 = r
    r3 *= 0.1
    den = np.hypot(r5, r3, out=r3)
    ratio.fill(0.0)
    np.divide(r5, den, out=ratio, where=np.greater(den, 0.0, out=plan.positive))
    ratio *= r5
    return float(np.max(ratio, initial=0.0))


def _extend(rhs, t, y, h, plan):
    """Fill stages 13-15 of an accepted step's plan.k (stage 12 filled), the
    three right-hand-side calls the continuous extension needs."""
    np.multiply(_A, h, out=plan.ha)
    _stages(rhs, t, y, h, plan, 1)


def _dense(y, h, k, theta):
    """The states at t + theta h for each 0 < theta < 1 of an array
    ``theta``, of a step from (t, y) whose stages ``k`` are all filled."""
    s = 1.0 - theta
    basis = np.cumprod([theta, s, theta, s, theta, s, theta], axis=0)
    out = _combine(h * (basis.T @ _DENSE), k, y.shape)
    out += y
    return out


def _first_step(rhs, t, y, k1, span, tol, guard, fiber=None) -> float:
    """Hairer's starting step (*Solving ODEs I*, sec. II.4) for an eighth-
    order pair, in his root-mean-square norm with the error test's scale
    tol (1 + |y|); the norms below leave out the factor 1 / tol, so a tiny
    tol cannot overflow them.  One probe call at the explicit Euler state
    y + h0 k1 estimates the second derivative.  h0 is halved while the
    guard refuses that state, so the probe stays where the trajectory may
    go; the guard's error stands once h0 falls below 1e-14 span."""
    weight = 1.0 + np.abs(y)
    d0, d1 = _rms_norm(y / weight), _rms_norm(k1 / weight)
    h0 = min(span, 1e-6 if min(d0, d1) < 1e-5 * tol else 0.01 * d0 / d1)
    while guard is not None:
        try:
            guard(y + h0 * k1)
            break
        except DomainEscapeError:
            h0 *= 0.5
            if h0 < 1e-14 * span:
                raise
    probe = _derivative(rhs, fiber, t + h0, y + h0 * k1, np.empty_like(y))
    d2 = _rms_norm((probe - k1) / weight) / h0
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 * tol else (0.01 * tol / d) ** (1 / 8)
    return min(100.0 * h0, h1, span)


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_values: Sequence[float],
    y0: np.ndarray,
    *,
    tol: float = 1e-10,
    guard: Optional[Callable[[np.ndarray], None]] = None,
    fiber: Optional[Fiber] = None,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from ``t_values[0]`` through the later times.

    ``t_values`` is ``(t_start, t_1, ..., t_k)``, ascending; the result has
    shape ``(k,) + y0.shape`` and holds the states at ``t_1, ..., t_k``.  One
    adaptive integration covers the whole span with local error per step
    <= tol.  The steps do not depend on the output times: only the last step
    is clipped, to land on ``t_k``.  A time at or before the start copies
    ``y0``, a time at an accepted step's end copies that step's state, and a
    time strictly inside an accepted step is interpolated from its stages
    (order 7, not controlled by the error estimate).  ``tol`` must be a
    positive finite number and every time finite, else ValueError.
    ``_MAX_STEPS`` caps the steps of the whole call.  ``rhs`` must not keep
    its ``y`` argument: a step's stage inputs are overwritten.  With a
    ``fiber``, y = (u, G) is a skew product: ``rhs`` sees and returns the
    base u alone, and the fiber's lift gives G' (see ``Fiber``).

    ``guard`` is called on every accepted state, before the right-hand side
    sees it, and may raise (used to detect trajectories escaping the unit
    disk).  An interpolated state is not guarded; it lies inside a step
    whose ends passed the guard.  The guard also sees the starting-step
    probe's state, and a DomainEscapeError there halves the probe step
    instead, so the probe is evaluated only at a state the guard accepts.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    times = [float(t) for t in t_values]
    if not times:
        raise ValueError("t_values needs a start time")
    if not all(math.isfinite(t) for t in times):
        raise ValueError(f"times must be finite, got {times!r}")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("integration backwards in time is not supported")
    y = np.asarray(y0, dtype=complex).copy()
    out = np.empty((len(times) - 1,) + y.shape, dtype=complex)
    t, t_end = times[0], times[-1]
    span = t_end - t
    slack = 1e-15 * span  # a time this close after a state copies it

    i = 1
    while i < len(times) and times[i] <= t + slack:
        out[i - 1] = y
        i += 1
    if i == len(times):
        return out
    if guard is not None:
        guard(y)
    k1 = _derivative(rhs, fiber, t, y, np.empty_like(y))
    h = _first_step(rhs, t, y, k1, span, tol, guard, fiber)
    # one stage array and its views for every step: a fresh one per step
    # costs page faults once the state outgrows the allocator's cached blocks
    plan = _Plan(y.shape, fiber)
    for _ in range(_MAX_STEPS):
        last = t_end - t <= h
        h_step = t_end - t if last else h
        y_new, err, k = _step(rhs, t, y, h_step, k1, plan)
        err_norm = _error_norm(err, y_new, tol, plan)
        if err_norm <= 1.0:
            t_new = t_end if last else t + h_step
            if guard is not None:
                guard(y_new)
            _derivative(rhs, fiber, t + h_step, y_new, k[12])
            j = i
            while j < len(times) and times[j] < t_new:
                j += 1
            if j > i:
                _extend(rhs, t, y, h_step, plan)
                out[i - 1 : j - 1] = _dense(y, h_step, k, (np.array(times[i:j]) - t) / h_step)
                i = j
            while i < len(times) and times[i] <= t_new + slack:
                out[i - 1] = y_new
                i += 1
            t, y, k1 = t_new, y_new, k[12]
            if i == len(times):
                return out
            factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm ** -0.125
            h = h_step * min(_MAX_FACTOR, max(1.0, factor))
        else:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.125)
            if h < 1e-14 * span:
                raise NoConvergenceError("step size underflow in adaptive integrator")
    raise NoConvergenceError("adaptive integrator exceeded the step cap")


def integrate_at(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_values: Sequence[float],
    y0: np.ndarray,
    *,
    tol: float = 1e-10,
    guard: Optional[Callable[[np.ndarray], None]] = None,
    fiber: Optional[Fiber] = None,
) -> np.ndarray:
    """States at nonnegative times in any order, repeats allowed, from t = 0:
    shape ``(len(t_values),) + y0.shape``, rows in the order asked.  The one
    place output times are ordered: one ``integrate`` call from 0 over the
    distinct times, so every time but the last is interpolated at no extra
    step.  A negative time raises ValueError, as ``integrate`` does a NaN."""
    times, where = np.unique(np.asarray(t_values, dtype=float).ravel(), return_inverse=True)
    if times.size and times[0] < 0:
        raise ValueError(f"t_values must be nonnegative, got {float(times[0])!r}")
    return integrate(rhs, np.concatenate([[0.0], times]), y0, tol=tol, guard=guard,
                     fiber=fiber)[where]
