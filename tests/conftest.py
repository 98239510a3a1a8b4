import dataclasses
import random
import sys

import pytest

from cycind import (
    UnfoldCapError,
    UnsoundDerivationError,
    build_reset_rep,
    check_proof,
    induced_proof_system,
    respect_induction_order,
)
from cycind.translate import translate

import oracles
import systems


@dataclasses.dataclass
class Pipeline:
    cs: object
    system: object
    deriv: object
    rep: object      # after both phases
    proof: object


@pytest.fixture(scope="session")
def pipelines():
    """The five worked systems taken all the way to checked proofs, once."""
    out = {}
    for name in ("plus", "ack", "dist", "treedist", "fg"):
        cs = systems.load(name)
        system, derivs = induced_proof_system(cs)
        deriv = derivs[systems.ROOT_FUN[name]]
        rep = respect_induction_order(build_reset_rep(deriv, system))
        proof = translate(rep)
        check_proof(system, proof)
        out[name] = Pipeline(cs, system, deriv, rep, proof)
    return out


@dataclasses.dataclass
class FuzzCase:
    cs: object
    system: object
    deriv: object
    rep1: object
    rep2: object


@pytest.fixture(scope="session")
def fuzz_population():
    """200 random sound systems whose plain unfolding stays small."""
    rng = random.Random(7)
    kept, attempts = [], 0
    while len(kept) < 200:
        attempts += 1
        cs = oracles.gentle_random_call_system(rng)
        system, derivs = induced_proof_system(cs)
        deriv = derivs[next(iter(cs.functions))]
        try:
            rep1 = build_reset_rep(deriv, system)
        except (UnsoundDerivationError, UnfoldCapError):
            continue
        if len(rep1.nodes) > 60:
            continue
        kept.append(FuzzCase(cs, system, deriv, rep1, respect_induction_order(rep1)))
    return attempts, kept


@pytest.fixture(scope="session")
def fuzz_proofs(fuzz_population):
    _, cases = fuzz_population
    return [(case, translate(case.rep2)) for case in cases]


@pytest.fixture
def calls_to():
    """``calls_to(fn, thunk)``: run ``thunk`` and return the arguments of every
    call to ``fn`` it made, under whatever name the caller bound ``fn``, with
    ``thunk``'s result."""

    def run(fn, thunk):
        code, calls = fn.__code__, []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code is code:
                calls.append(dict(frame.f_locals))

        sys.setprofile(profile)
        try:
            result = thunk()
        finally:
            sys.setprofile(None)
        return calls, result

    return run
