"""Brent's root finder and bounded minimizer, as resumable searches.

brentq transcribes scipy's C brentq (scipy/optimize/Zeros/brentq.c) and
fminbound scipy's _minimize_scalar_bounded (scipy/optimize/_optimize.py),
step for step and operation for operation (Brent, Algorithms for
Minimization without Derivatives, 1973). So on any function they return the
bits that scipy.optimize.brentq and minimize_scalar(method="bounded") return
with the same tolerances.

Each is a generator: it yields every abscissa at which it needs the
function, is sent the function's value there, and returns its result. A
caller can so run many searches in lockstep and evaluate each round's
abscissae together, as the spectrum scan does; a search's result depends
only on the values it is sent, so it is the same whatever runs beside it.
solve runs one search on a plain function, as scipy would.

The transcribed code is scipy's, under this notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math

from .errors import DomainError, NumericalInvariantError


def _checked(fx, x):
    """fx, refused if NaN, as scipy's brentq refuses it."""
    if fx != fx:
        raise DomainError(f"the function value at x={x!r} is NaN")
    return fx


def solve(search, f):
    """The result of a search run on the function f, one value at a time."""
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


def brentq(xa, xb, xtol=2e-12, rtol=4 * 2.0 ** -52, maxiter=100):
    """Search for a root of f in [xa, xb], where f changes sign.

    Yields x, is sent f(x); returns the root. An end where f is 0 is the
    root. DomainError if f has one sign at both ends or is NaN;
    NumericalInvariantError after maxiter iterations.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked((yield xpre), xpre)
    fcur = _checked((yield xcur), xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise DomainError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides by an underflowed 0 to inf or nan; the test
                # below refuses either, as it refuses inf.
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked((yield xcur), xcur)
    raise NumericalInvariantError(f"brentq failed to converge after "
                                  f"{maxiter} iterations, value is {xcur!r}")


def _sign(v):
    """np.sign(v) + (v == 0): 1 for v >= 0, -1 below."""
    return -1.0 if v < 0 else 1.0


def fminbound(x1, x2, xatol=1e-5, maxiter=500):
    """Search for a minimizer of f on [x1, x2] by Brent's bounded method.

    Yields x, is sent f(x); returns the best x after the interval shrinks
    below about xatol, or after maxiter evaluations, as scipy does.
    """
    if not (math.isfinite(x1) and math.isfinite(x2) and x1 <= x2):
        raise DomainError("bounds must be finite, the lower one first")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = yield x
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf
