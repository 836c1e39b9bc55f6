"""The Lyapunov documents: the drift check, the birth-death stability
report and the eigenvalue bound, pinned byte for byte."""

import hashlib
import json

import numpy as np
import pytest

from oracles import birth_death_params_any_p_hat
from rsgame.birth_death import BirthDeathParams, build_birth_death, verify_stability_estimates
from rsgame.model import LyapunovData, check_lyapunov, make_model
from rsgame.solver import eigenvalue_upper_bound


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def bounded_two_state(gamma, cost=0.5, C=1.0):
    P = np.full((1, 1, 2), 0.5)
    ly = LyapunovData(log_W=np.zeros(2), C=C, K=np.array([0, 1]), gamma=gamma)
    return make_model(2, [[0], [0]], [[0], [0]], [P.copy(), P.copy()],
                      [np.full((1, 1), cost)] * 2, i0=0, lyapunov=ly)


def _stability(p_hat):
    return verify_stability_estimates(birth_death_params_any_p_hat(p_hat, window=60),
                                      i_max=200).to_dict()


@pytest.mark.parametrize("document, sha", [
    (lambda: check_lyapunov(build_birth_death(BirthDeathParams(window=60))).to_dict(),
     "8f3d7626a2e832d06cf4039b62a7126439c20054ef8de6ca573cc6bfe785211c"),
    (lambda: check_lyapunov(bounded_two_state(1.0)).to_dict(),
     "7eea3344cd0f2d42c61645b7d7e4d9888e67d612204c80d31b82f6d532039386"),
    (lambda: check_lyapunov(bounded_two_state(0.3)).to_dict(),
     "cb023ee05255c5f86e24a3536aeb278d79ef3449639a1422ee9cdb6c0424a7e3"),
    (lambda: _stability(0.1),
     "0dfaf0659bda5c083cd8b58e6f8c8f9bdadfb16d09f28768aee4a9f908c35a86"),
    (lambda: _stability(0.2),
     "3ff94458b7eb03b1260fea22223cfe3fc0b0d0ad2fc0cbdc46a7f853e3b8b3bd"),
    (lambda: eigenvalue_upper_bound(build_birth_death(BirthDeathParams(window=60))),
     "2c96049a2c7c0273fe9c677a28b0a121b75c52ad62b0861adf1e6d7322d38b32"),
    (lambda: eigenvalue_upper_bound(bounded_two_state(1.0)),
     "c292d2fd6fcd30ccae2a3503172a13137c816e757adef6306d45de4a0c0aa4e9"),
], ids=["check-bd60", "check-bounded-1.0", "check-bounded-0.3", "stability-0.1",
        "stability-0.2", "bound-bd60", "bound-bounded"])
def test_lyapunov_documents_pinned(document, sha):
    assert _digest(document()) == sha


def test_single_checked_state_passes_the_surrogate():
    """Both documents come from one checker: the stability report at
    i_max = 0 is check_lyapunov on state 0, whose surrogate passes."""
    one = verify_stability_estimates(BirthDeathParams(window=60), i_max=0)
    assert one.norm_like["passed"] and one.passed
    rep = check_lyapunov(build_birth_death(BirthDeathParams(window=60)), [0])
    assert rep.norm_like == one.norm_like and rep.slack.tolist() == one.slack
