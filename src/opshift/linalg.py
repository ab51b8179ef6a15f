"""Dense Hermitian operators: spectral decompositions with eigenvalue
clustering, functional calculus, resolvents and Schatten norms.

Everything is immutable after construction and safe to share across
threads; decompositions at the default clustering tolerance are cached
on the operator.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ValidationError

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "spectral_decompose",
    "func_calculus",
    "schatten_norm",
    "resolvent_comparability",
    "ResolventComparabilityReport",
    "operator_from_json",
    "operator_to_json",
]

MAX_DIM = 64
HERMITICITY_WARN_TOL = 1e-12
HERMITICITY_REJECT_TOL = 1e-6


def default_cluster_tolerance(norm):
    # divided differences take any nodes; clustering bounds the number of
    # eigenvalue-cluster tuples and keeps the knots of the kernels apart
    return 1e-9 * (1.0 + norm)


class HermitianOperator:
    """Dense complex Hermitian matrix with cached spectral data."""

    __slots__ = ("entries", "dim", "_decomp", "_norm", "_resolvent")

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("operator entries must form a square matrix")
        if a.shape[0] < 1:
            raise ValidationError("dimension must be at least 1")
        if a.shape[0] > MAX_DIM:
            raise ValidationError(f"dimension {a.shape[0]} exceeds the dense cap {MAX_DIM}")
        scale = max(1.0, float(np.max(np.abs(a))))
        asym = float(np.max(np.abs(a - a.conj().T)))
        if asym > HERMITICITY_REJECT_TOL * scale:
            raise ValidationError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
        if asym > HERMITICITY_WARN_TOL * scale:
            warnings.warn(f"symmetrizing input with asymmetry {asym:.3e}", stacklevel=2)
        a = 0.5 * (a + a.conj().T)
        a.setflags(write=False)
        self.entries = a
        self.dim = a.shape[0]
        self._decomp = None
        self._norm = None
        self._resolvent = None

    def __add__(self, other):
        if isinstance(other, HermitianOperator):
            return HermitianOperator(self.entries + other.entries)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, HermitianOperator):
            return HermitianOperator(self.entries - other.entries)
        return NotImplemented

    def __mul__(self, scalar):
        return HermitianOperator(self.entries * float(scalar))

    __rmul__ = __mul__

    def norm(self):
        if self._norm is None:
            self._norm = float(np.linalg.norm(self.entries, 2)) if self.dim > 1 else float(abs(self.entries[0, 0]))
        return self._norm

    def resolvent(self):
        """(H - i)^(-1); cached."""
        if self._resolvent is None:
            r = np.linalg.inv(self.entries - 1j * np.eye(self.dim))
            r.setflags(write=False)
            self._resolvent = r
        return self._resolvent

    def decomposition(self):
        """Spectral decomposition at the default clustering tolerance; cached."""
        if self._decomp is None:
            self._decomp = spectral_decompose(self, default_cluster_tolerance(self.norm()))
        return self._decomp

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigenvalues with orthogonal spectral projections.

    ``eigenvectors`` holds the orthonormal columns from ``eigh`` in
    ascending eigenvalue order and ``labels[i]`` the cluster of column i;
    every cluster is a run of consecutive columns.  The projection of
    cluster j is the sum of x_i x_i^* over its columns, built on first
    use, so callers that work in the eigenbasis never pay for it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    labels: np.ndarray
    cluster_tolerance: float

    def __post_init__(self):
        for name, dtype in (("eigenvalues", float), ("eigenvectors", complex), ("labels", np.intp)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @functools.cached_property
    def projections(self):
        out = []
        for j in range(len(self.eigenvalues)):
            vecs = self.eigenvectors[:, self.labels == j]
            p = vecs @ vecs.conj().T
            p = 0.5 * (p + p.conj().T)
            p.setflags(write=False)
            out.append(p)
        return tuple(out)

    @property
    def dim(self):
        return self.eigenvectors.shape[0]

    def multiplicities(self):
        return [int(round(np.real(np.trace(p)))) for p in self.projections]

    def reconstruct(self):
        out = np.zeros_like(self.projections[0])
        for lam, p in zip(self.eigenvalues, self.projections):
            out = out + lam * p
        return out

    def verify(self):
        """Residuals of the defining invariants, for tests and reports."""
        eye = np.eye(self.dim)
        total = sum(self.projections)
        res = {
            "partition_of_unity": float(np.max(np.abs(total - eye))),
            "idempotent": max(
                float(np.max(np.abs(p @ p - p))) for p in self.projections
            ),
            "self_adjoint": max(
                float(np.max(np.abs(p - p.conj().T))) for p in self.projections
            ),
        }
        ortho = 0.0
        for i, p in enumerate(self.projections):
            for q in self.projections[i + 1 :]:
                ortho = max(ortho, float(np.max(np.abs(p @ q))))
        res["orthogonal"] = ortho
        gaps = np.diff(self.eigenvalues)
        res["separated"] = bool(np.all(gaps > self.cluster_tolerance)) if len(gaps) else True
        return res


def spectral_decompose(H, cluster_tolerance=None) -> SpectralDecomposition:
    """Eigendecomposition with eigenvalues merged into clusters.

    Eigenvalues closer than ``cluster_tolerance`` (chained) are merged
    into a single cluster whose projection is the sum of the individual
    spectral projections and whose eigenvalue is the cluster mean.
    """
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    if cluster_tolerance is None:
        cluster_tolerance = default_cluster_tolerance(H.norm())
    if cluster_tolerance < 0:
        raise ValidationError("cluster tolerance must be nonnegative")
    try:
        lam, U = np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger on lapack
        raise NumericError("eigensolver failed to converge") from exc
    # a new cluster starts where the gap to the previous eigenvalue exceeds the tolerance
    labels = np.concatenate([[0], np.cumsum(np.diff(lam) > cluster_tolerance)])
    eigenvalues = [float(np.mean(lam[labels == j])) for j in range(labels[-1] + 1)]
    return SpectralDecomposition(np.array(eigenvalues), U, labels, float(cluster_tolerance))


def _check_poles_off(f, values, what="spectrum"):
    poles = getattr(f, "poles", lambda: ())()
    if len(poles):
        dist = np.abs(np.asarray(poles, dtype=complex)[:, None] - np.asarray(values)[None, :])
        near = np.flatnonzero(dist.min(axis=1) < 1e-12)
        if len(near):
            raise DomainError(f"function pole {poles[near[0]]} lies on the {what}")


def func_calculus(f, H) -> np.ndarray:
    """f(H) = sum f(lambda_j) P_j = X diag(f(lambda_labels)) X^* in the
    eigenbasis, with f (any object with ``eval_deriv``) evaluated once over
    all cluster eigenvalues."""
    if not isinstance(H, HermitianOperator):
        H = HermitianOperator(H)
    dec = H.decomposition()
    _check_poles_off(f, dec.eigenvalues)
    vals = np.asarray(f.eval_deriv(0, dec.eigenvalues), dtype=complex)
    X = dec.eigenvectors
    return (X * vals[dec.labels]) @ X.conj().T


def schatten_norm(A, p) -> float:
    """(sum sigma_i^p)^(1/p) of the singular values; p = inf gives the largest."""
    p = float(p)
    if not p >= 1.0:
        raise ValidationError("Schatten exponent must satisfy p >= 1")
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValidationError("Schatten norms are defined for matrices")
    sv = np.linalg.svd(A, compute_uv=False)
    if np.isinf(p):
        return float(sv[0]) if len(sv) else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


@dataclass(frozen=True)
class ResolventComparabilityReport:
    lhs_norm: float
    rhs_norm: float
    identity_residuals: tuple
    scale: float


def resolvent_comparability(H: HermitianOperator, V: HermitianOperator, n) -> ResolventComparabilityReport:
    """Schatten-n data for the two equivalent smallness conditions and the
    residuals of the two second-resolvent-identity factorizations that
    prove their equivalence.
    """
    if H.dim != V.dim:
        raise ValidationError("operators must act on the same space")
    if not float(n) >= 1.0:
        raise ValidationError("Schatten exponent must satisfy n >= 1")
    rH = H.resolvent()
    rHV = (H + V).resolvent()
    v = V.entries
    lhs = rHV - rH
    rhs = rH @ v @ rH
    base = rH - rHV
    fact1 = rhs - (rH - rHV) @ v @ rH
    fact2 = rhs - rHV @ v @ rH @ v @ rH
    scale = 1.0 + schatten_norm(base, np.inf) + schatten_norm(rhs, np.inf)
    return ResolventComparabilityReport(
        lhs_norm=schatten_norm(lhs, n),
        rhs_norm=schatten_norm(rhs, n),
        identity_residuals=(
            float(np.max(np.abs(base - fact1))),
            float(np.max(np.abs(base - fact2))),
        ),
        scale=scale,
    )


def operator_to_json(H: HermitianOperator) -> str:
    """JSON wire format: {"dim": d, "re": [[...]], "im": [[...]]}, row-major."""
    return json.dumps(
        {
            "dim": H.dim,
            "re": [[float(v) for v in row] for row in np.real(H.entries)],
            "im": [[float(v) for v in row] for row in np.imag(H.entries)],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def operator_from_json(s: str) -> HermitianOperator:
    d = json.loads(s)
    re = np.asarray(d["re"], dtype=float)
    im = np.asarray(d["im"], dtype=float)
    if re.shape != (d["dim"], d["dim"]) or im.shape != re.shape:
        raise ValidationError("matrix payload does not match declared dimension")
    return HermitianOperator(re + 1j * im)
