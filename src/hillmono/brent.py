"""Brent's root finder, as a resumable search.

brentq transcribes scipy's C brentq (scipy/optimize/Zeros/brentq.c) step
for step and operation for operation (Brent, Algorithms for Minimization
without Derivatives, 1973). So on any function it returns the bits that
scipy.optimize.brentq returns with the same tolerances.

It is a generator: it yields every abscissa at which it needs the
function, is sent the function's value there, and returns the root. A
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
