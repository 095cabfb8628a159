import numpy as np
import pytest
import scipy.linalg

from dense_oracle import SIGMA, coherent_probes, probe, spin_matrices
from kickedtop.spin import (coherent_state, coherent_tops, dim_top, jx_eigensystem,
                            ladder_elements, m_values, product_state)


def expectation(op, psi):
    """<psi| op |psi>."""
    return complex(np.vdot(psi, op @ psi))


def test_spin_half_matrices():
    ops = spin_matrices(1)
    assert np.allclose(ops["z"], np.diag([-0.5, 0.5]))
    assert np.allclose(ops["x"], [[0.0, 0.5], [0.5, 0.0]])
    # the top orders m ascending while the Pauli matrices put spin-up first,
    # so the j = 1/2 matrices match the basis-reversed Paulis
    for axis in "xyz":
        assert np.allclose(2 * ops[axis], SIGMA[axis][::-1, ::-1])


def test_spin_one_ladder_elements():
    # sqrt(j(j+1) - m(m+1)) = sqrt(2) for both m = -1 and m = 0 at j = 1
    ops = spin_matrices(2)
    jp = ops["x"] + 1j * ops["y"]
    raising = np.sqrt(2.0)
    assert jp[1, 0] == pytest.approx(raising, abs=1e-12)
    assert jp[2, 1] == pytest.approx(raising, abs=1e-12)
    assert np.count_nonzero(jp) == 2
    assert np.abs(ladder_elements(2) - raising).max() < 1e-15


@pytest.mark.parametrize("two_j", [1, 2, 7, 64, 65, 400, 401])
def test_jx_eigensystem_matches_the_tridiagonal_solver(two_j):
    # numpy's dense eigh against scipy's tridiagonal one, each column's sign fixed
    evals, evecs = jx_eigensystem(two_j)
    oracle, oracle_vecs = scipy.linalg.eigh_tridiagonal(np.zeros(two_j + 1),
                                                        ladder_elements(two_j) / 2.0)
    signs = np.sign(np.einsum("ij,ij->j", evecs, oracle_vecs))
    assert np.abs(evals - oracle).max() < 1e-13
    assert np.abs(evecs * signs - oracle_vecs).max() < 1e-13
    assert not evals.flags.writeable and not evecs.flags.writeable
    assert evecs.flags.f_contiguous


@pytest.mark.parametrize("two_j", [1, 2, 5, 10, 11])
def test_commutation_relations(two_j):
    jx, jy, jz = spin_matrices(two_j).values()
    assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12
    assert np.abs(jy @ jz - jz @ jy - 1j * jx).max() < 1e-12
    assert np.abs(jz @ jx - jx @ jz - 1j * jy).max() < 1e-12
    # J+ = Jx + i Jy raises m by one, by the package's ladder elements, and
    # J- = Jx - i Jy is its adjoint
    jp, jm = jx + 1j * jy, jx - 1j * jy
    assert np.abs(jp - np.diag(ladder_elements(two_j), -1)).max() < 1e-12
    assert np.abs(jm - jp.conj().T).max() < 1e-12


def coupling(axis, two_j):
    """The coupling J_a sigma_a on the coupled space."""
    return np.kron(spin_matrices(two_j)[axis], SIGMA[axis])


@pytest.mark.parametrize("two_j", [1, 2, 7, 10])
def test_hermiticity(two_j):
    ops = spin_matrices(two_j)
    for mat in ops.values():
        assert np.abs(mat - mat.conj().T).max() < 1e-12
    for axis in "xyz":
        coupled = coupling(axis, two_j)
        assert np.abs(coupled - coupled.conj().T).max() < 1e-12


def test_coupling_z_spin_half():
    coupled = coupling("z", 1)
    assert np.allclose(coupled, np.diag([-0.5, 0.5, 0.5, -0.5]))


def test_coupling_traceless():
    coupled = coupling("x", 9)
    assert abs(np.trace(coupled)) < 1e-12


def test_coupling_x_y_related_by_quarter_turn():
    # conjugation with exp(-i (Jz + sigma_z/2) pi/2) sends the x coupling to y
    two_j = 10
    m = np.repeat(m_values(two_j), 2)
    s = np.tile([0.5, -0.5], dim_top(two_j))
    rot = np.diag(np.exp(-1j * (m + s) * np.pi / 2.0))
    lhs = rot @ coupling("x", two_j) @ rot.conj().T
    assert np.abs(lhs - coupling("y", two_j)).max() < 1e-10


def test_coherent_pole():
    state = coherent_state(8, 0.0, 1.3)
    assert abs(abs(state[-1]) - 1.0) < 1e-12
    assert np.abs(state[:-1]).max() < 1e-12


def test_coherent_expectations_match_bloch_vector():
    two_j = 15
    j = two_j / 2.0
    ops = spin_matrices(two_j)
    for theta in np.linspace(0.1, np.pi - 0.1, 5):
        for phi in np.linspace(0.0, 2 * np.pi, 5, endpoint=False):
            state = coherent_state(two_j, theta, phi)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
            vec = [expectation(ops[axis], state) for axis in "xyz"]
            target = j * np.array([np.sin(theta) * np.cos(phi),
                                   np.sin(theta) * np.sin(phi), np.cos(theta)])
            assert np.abs(np.array(vec) - target).max() < 1e-10


def test_coherent_known_points():
    ops = spin_matrices(20)
    state = coherent_state(20, np.pi / 3.0, 0.0)
    assert expectation(ops["z"], state).real == pytest.approx(5.0, abs=1e-10)

    state = coherent_state(20, np.pi / 2.0, np.pi / 2.0)
    assert expectation(ops["y"], state).real == pytest.approx(10.0, abs=1e-10)
    assert abs(expectation(ops["x"], state)) < 1e-10
    assert abs(expectation(ops["z"], state)) < 1e-10

    state = coherent_state(20, np.pi / 2.0, np.pi / 4.0)
    assert expectation(ops["x"], state).real == pytest.approx(7.07106781186547524, abs=1e-10)


@pytest.mark.parametrize("two_j", [1, 2, 7, 64, 65, 400])
def test_coherent_tops_match_coherent_states(two_j):
    # real Wigner-d columns from one product, at the poles and 32 Gauss-Legendre
    # nodes, against the last column of the oracle's rotation exp(-i theta Jy)
    z_nodes = np.polynomial.legendre.leggauss(32)[0]
    thetas = np.concatenate([[0.0, np.pi], np.arccos(z_nodes)])
    tops = coherent_tops(two_j, thetas)
    assert tops.dtype == float and tops.shape == (two_j + 1, thetas.size)
    states = np.stack([coherent_state(two_j, theta, 0.0) for theta in thetas], axis=1)
    assert np.abs(tops - states).max() < 1e-13
    rotated = coherent_probes(two_j, thetas, [0.0], spin=[1.0]).T
    assert np.abs(tops - rotated).max() < 1e-13


def test_probe_state_structure():
    two_j = 10
    state = probe(two_j, 0.0, 0.0)
    assert abs(abs(state[-2]) - 1 / np.sqrt(2)) < 1e-12   # (m = j, up)
    assert abs(abs(state[-1]) - 1 / np.sqrt(2)) < 1e-12   # (m = j, down)
    assert np.abs(state[:-2]).max() < 1e-12

    sz = np.kron(np.eye(dim_top(two_j)), SIGMA["z"])
    assert abs(expectation(sz, probe(two_j, 1.0, 2.0))) < 1e-12
    # the package's coherent top interleaved with the same spinor is the oracle's
    for theta, phi in ((0.0, 0.0), (1.0, 2.0), (np.pi, 0.3)):
        state = product_state(two_j, coherent_state(two_j, theta, phi),
                              np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.abs(state - probe(two_j, theta, phi)).max() < 1e-13


def test_probe_state_jz():
    two_j = 100
    jz = np.kron(np.diag(m_values(two_j)), np.eye(2))
    value = expectation(jz, probe(two_j, np.pi / 3.0, 0.0))
    assert value.real == pytest.approx(25.0, abs=1e-8)


def test_expectation_hermitian_real():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    value = expectation(coupling("y", 3), psi)
    assert abs(value.imag) < 1e-12


def test_product_state_interleaving():
    top = np.array([1.0, 2.0, 3.0], dtype=complex)
    spin = np.array([1.0, -1j])
    state = product_state(2, top, spin)
    assert np.allclose(state[0::2], top)
    assert np.allclose(state[1::2], -1j * top)


def test_construction_deterministic():
    a = coherent_tops(9, [0.7, 2.3])
    b = coherent_tops(9, [0.7, 2.3])
    assert np.array_equal(a, b)
    c1 = coherent_state(9, 0.7, 1.1)
    c2 = coherent_state(9, 0.7, 1.1)
    assert np.array_equal(c1, c2)


def test_dimensions_and_validation():
    assert dim_top(10) == 11
    with pytest.raises(ValueError):
        dim_top(0)
    with pytest.raises(ValueError):
        dim_top(2.5)
    with pytest.raises(ValueError):
        coherent_state(4, -0.1, 0.0)
