"""The handler of `deform verify`.

`cli.VERBS` describes the verb and its arguments; `cli.main` loads this
module only to run it, and calls `HANDLERS["deform verify"]` as
handler({"seed": ..., "output": ...}, **its arguments). Every layer is
imported inside the handler; README's Start-up table lists what it loads.
"""

from __future__ import annotations

from .serialize import FormatError, _emit


def deform_verify(obj, family, n_, samples):
    from .deformations import (
        concatenate,
        diag_contraction,
        st_deformation,
        st_prime_deformation,
        verify_deformation,
    )

    build, needs_contraction = {
        "st": (st_deformation, False),
        "st-prime": (st_prime_deformation, True),
        "concat": (lambda n: concatenate(diag_contraction(n), st_deformation(n)), True),
    }[family]
    try:
        dfm = build(n_)
    except FormatError as exc:  # the algebra is above the catalog's bound, found before it is built
        raise FormatError(f"--n: {exc}") from None
    law_tol = 1e-9
    report = verify_deformation(dfm, samples=samples, seed=obj["seed"])
    ok = report.passed(law_tol) and (report.contraction_at_one or not needs_contraction)
    body = {
        "family": family,
        "n": n_,
        "descriptor": dfm.to_dict(),
        "checks": report.to_dict(),
    }
    _emit(obj, "deform verify", body, ok, {"endomorphism_law": law_tol})


HANDLERS = {"deform verify": deform_verify}
