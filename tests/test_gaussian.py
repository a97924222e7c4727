import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twoway_cvqkd.attacks import AttackParams
from twoway_cvqkd.cli import EXIT_FLAG, EXIT_OK, main
from twoway_cvqkd.gaussian import (I2, PHYSICALITY_TOL, conditional_cov, g_entropy,
                                   spectrum_entropies, symplectic_eigenvalues,
                                   von_neumann_entropy)
from twoway_cvqkd.tomography import OMEGA

from oracles import (beam_splitter, direct_sum, epr_cm, is_symplectic, omega,
                     one_way_cm, random_symplectic)


def test_omega_one_mode():
    assert np.array_equal(omega(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(omega(1), OMEGA)


def test_omega_two_modes_is_direct_sum():
    assert np.array_equal(omega(2), direct_sum(omega(1), omega(1)))


def test_omega_squares_to_minus_identity():
    for n in (1, 2, 3, 4):
        assert np.allclose(omega(n) @ omega(n), -np.eye(2 * n))


def test_epr_cm_vacuum_limit():
    assert np.allclose(epr_cm(1.0), np.eye(4))


def test_epr_cm_off_diagonal():
    mat = epr_cm(2.0)
    assert mat[0, 2] == pytest.approx(math.sqrt(3.0))
    assert mat[1, 3] == pytest.approx(-math.sqrt(3.0))


def test_epr_cm_is_pure():
    for V in (1.0, 2.0, 10.0, 1e4):
        assert np.allclose(symplectic_eigenvalues(epr_cm(V)), [1.0, 1.0], atol=1e-8)


def test_epr_cm_rejects_small_variance():
    with pytest.raises(ValueError):
        epr_cm(0.5)


def test_symplectic_eigenvalues_thermal():
    assert np.allclose(symplectic_eigenvalues(3.0 * np.eye(2)), [3.0])


def test_symplectic_eigenvalues_one_way_eve_cm():
    # unconditional Eve state: large eigenvalue (1-T)V, small one W
    params = AttackParams(0.7, 2.0)
    V = 1e6
    nus = symplectic_eigenvalues(one_way_cm("E", V, V, params))
    assert abs(nus[0] - 0.3 * V) < 1e-3 * 0.3 * V
    assert abs(nus[1] - 2.0) < 1e-3 * 2.0


def test_symplectic_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError):
        symplectic_eigenvalues(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_g_entropy_values():
    assert g_entropy(1.0) == 0.0
    assert g_entropy(3.0) == pytest.approx(2.0, abs=1e-12)
    nu = 1e6
    assert g_entropy(nu) == pytest.approx(math.log2(math.e * nu / 2), rel=1e-5)
    # g(nu) = log2(e nu / 2) + O(1/nu^2): no precision lost at large nu
    for nu in (1e8, 1e12, 1e16, 1e200):
        assert g_entropy(nu) == pytest.approx(math.log2(math.e * nu / 2), abs=1e-12)


def test_g_entropy_rejects_unphysical():
    with pytest.raises(ValueError):
        g_entropy(0.9)


def test_g_entropy_on_arrays_matches_scalar():
    # numpy's log1p may differ from the C library's by an ulp (it does at
    # nu = 2), so the array path is held to 4 ulp of the scalar value
    nus = np.array([1.0, 1.0 + 1e-13, 2.0, 1e8, 1e300])
    scalar = np.array([g_entropy(nu) for nu in nus])
    assert np.all(np.abs(g_entropy(nus) - scalar) <= 4 * np.spacing(scalar))
    assert np.array_equal(g_entropy(nus)[:2], [0.0, 0.0])
    with pytest.raises(ValueError):
        g_entropy(np.array([2.0, 1.0 - 2 * PHYSICALITY_TOL]))


def test_g_entropy_strictly_increasing():
    grid = np.linspace(1.0 + 1e-6, 50.0, 200)
    vals = [g_entropy(nu) for nu in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_von_neumann_entropy():
    assert von_neumann_entropy(np.eye(2)) == 0.0
    assert von_neumann_entropy(3.0 * np.eye(2)) == pytest.approx(2.0, abs=1e-12)
    assert von_neumann_entropy(epr_cm(7.0)) == pytest.approx(0.0, abs=1e-6)


def test_beam_splitter_limits():
    assert np.allclose(beam_splitter(1.0), np.eye(4))
    swap = beam_splitter(0.0)
    # T=0 swaps the modes, with a sign on the reflected arm
    assert np.allclose(swap[:2, 2:], np.eye(2))
    assert np.allclose(swap[2:, :2], -np.eye(2))


def test_beam_splitter_symplectic():
    for T in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert is_symplectic(beam_splitter(T))


def test_apply_transform():
    cm = epr_cm(3.0)
    s = np.eye(4)
    assert np.allclose(s @ cm @ s.T, cm)
    # beam splitter leaves two vacua invariant
    s = beam_splitter(0.37)
    assert np.allclose(s @ np.eye(4) @ s.T, np.eye(4))


def test_spectrum_invariant_under_symplectics():
    rng = np.random.default_rng(3)
    cm = direct_sum(1.5 * np.eye(2), epr_cm(4.0))
    ref = symplectic_eigenvalues(cm)
    for _ in range(5):
        s = random_symplectic(3, rng)
        assert np.allclose(symplectic_eigenvalues(s @ cm @ s.T), ref, atol=1e-8)


def _random_cm_stack():
    rng = np.random.default_rng(5)
    base = direct_sum(1.5 * np.eye(2), epr_cm(4.0), 7.0 * np.eye(2))
    return np.array([s @ base @ s.T for s in (random_symplectic(4, rng) for _ in range(4))])


def test_symplectic_eigenvalues_on_a_stack():
    cms = _random_cm_stack()
    nus = symplectic_eigenvalues(cms)
    assert nus.shape == (4, 4)
    for cm, row in zip(cms, nus):
        assert np.array_equal(row, symplectic_eigenvalues(cm))


@pytest.mark.parametrize("broken", ["asymmetric", "nan"])
def test_symplectic_eigenvalues_reject_a_stack_with_a_broken_matrix(broken):
    cms = _random_cm_stack()
    if broken == "asymmetric":
        cms[2, 0, 1] += 1e-3
    else:
        cms[2, 2, 2] = np.nan
    with pytest.raises(ValueError, match="not symmetric or not finite"):
        symplectic_eigenvalues(cms)
    symplectic_eigenvalues(cms[:2])   # the sound matrices alone pass


def test_symplectic_eigenvalues_reject_a_4d_array():
    with pytest.raises(ValueError, match="2n x 2n"):
        symplectic_eigenvalues(_random_cm_stack()[None])


def test_von_neumann_entropy_rejects_a_stack():
    cms = _random_cm_stack()
    with pytest.raises(ValueError, match="2n x 2n"):
        von_neumann_entropy(cms)


def test_spectrum_entropies_of_a_stack_match_each_matrix():
    cms = _random_cm_stack()
    assert spectrum_entropies(symplectic_eigenvalues(cms)) == [
        von_neumann_entropy(cm) for cm in cms]
    # a pure state is exactly 0; a nu just below 1 is clamped to it, where
    # g_entropy alone would reject it
    nu_low = 1.0 - 10 * PHYSICALITY_TOL
    with pytest.raises(ValueError):
        g_entropy(nu_low)
    assert spectrum_entropies(np.array([[1.0, 1.0], [nu_low, 3.0]])) == [0.0, 2.0]
    assert von_neumann_entropy(np.eye(4)) == 0.0


def test_conditional_cov_on_a_stack():
    rng = np.random.default_rng(6)
    base = direct_sum(epr_cm(3.0), 2.5 * np.eye(2))
    cms = np.array([s @ base @ s.T for s in (random_symplectic(3, rng) for _ in range(3))])
    rows = rng.normal(size=(3, 2, 6))
    noise = np.array([k * I2 for k in (0.5, 1.0, 2.0)])
    stacked = conditional_cov(cms, range(4), rows, noise)
    for k in range(3):
        assert np.array_equal(stacked[k], conditional_cov(cms[k], range(4), rows[k], noise[k]))
    shared = conditional_cov(cms, range(4), np.eye(6)[4:], I2)
    for k in range(3):
        assert np.array_equal(shared[k], conditional_cov(cms[k], range(4), np.eye(6)[4:], I2))


# Measuring a mode conditions the others by a Schur complement: homodyne
# observes one quadrature row, heterodyne both rows plus vacuum noise I.

def test_condition_on_homodyne_epr():
    V = 5.0
    out = conditional_cov(epr_cm(V), [0, 1], np.eye(4)[[2]])  # Q of mode 1
    assert np.allclose(out, np.diag([1.0 / V, V]), atol=1e-12)


def test_condition_on_homodyne_product_state():
    cm = direct_sum(2.0 * np.eye(2), 3.0 * np.eye(2))
    out = conditional_cov(cm, [0, 1], np.eye(4)[[3]])  # P of mode 1
    assert np.allclose(out, 2.0 * np.eye(2))


def test_condition_on_heterodyne_epr_gives_coherent_state():
    for V in (1.0, 2.0, 10.0, 1e3):
        out = conditional_cov(epr_cm(V), [2, 3], np.eye(4)[:2], I2)  # mode 0
        assert np.allclose(out, np.eye(2), atol=1e-9)


def test_conditioning_preserves_physicality():
    rng = np.random.default_rng(11)
    for _ in range(10):
        base = direct_sum(epr_cm(3.0), 2.5 * np.eye(2))
        s = random_symplectic(3, rng)
        cm = s @ base @ s.T
        for reduced in (conditional_cov(cm, range(4), np.eye(6)[[4]]),
                        conditional_cov(cm, range(4), np.eye(6)[4:], I2)):
            assert symplectic_eigenvalues(reduced).min() >= 1.0 - 1e-8


def test_log_units_switch(capsys):
    # entropies are computed in bits; `cvqkd --log-base e` prints nats.
    # coll_het DR at T = 3/4 is ln 3 - g(W) nats, so W = 3 gives g(3) = 2 ln 2
    assert g_entropy(3.0) == pytest.approx(2.0, abs=1e-12)
    rates = {}
    for W in (1.0, 3.0):
        code = main(["--log-base", "e", "rate", "--protocol", "coll_het",
                     "--recon", "dr", "--T", "0.75", "--W", str(W)])
        assert code == EXIT_OK
        rates[W] = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[5])
    assert rates[1.0] == pytest.approx(math.log(3.0), abs=1e-11)
    assert rates[1.0] - rates[3.0] == pytest.approx(2.0 * math.log(2.0), abs=1e-11)
    assert main(["--log-base", "dits", "rate", "--protocol", "coll_het",
                 "--recon", "dr", "--T", "0.75"]) == EXIT_FLAG




def test_package_import_loads_no_scipy():
    import twoway_cvqkd
    src = str(Path(twoway_cvqkd.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import twoway_cvqkd; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
