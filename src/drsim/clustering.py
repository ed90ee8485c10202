"""Clustering households by tariff responsiveness.

The pipeline is: stack counterfactual response profiles into a nonnegative
matrix, compress it with a rank-r NMF, then k-medoids (full PAM) on the
household loading vectors. Cluster quality is scored with the
Calinski-Harabasz statistic in the variant used throughout this project
(between-cluster sum unweighted by cluster size, within-cluster variances
averaged per cluster).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataio import LOW, NORMAL, HIGH, read_csv, write_csv

NMF_EPS = 1e-12
ASSIGNMENTS_HEADER = ["household_id", "cluster"]


class ClusteringError(ValueError):
    pass


class PerfectlyTightClusteringError(ClusteringError):
    pass


@dataclass
class ProfileMatrix:
    """Households x (3 * 48) normalized response profiles.

    Column blocks are ordered (Low, Normal, High). Each row is divided by the
    household's average Normal-tariff response mu_bar; households where that
    baseline is not positive are excluded (with a warning).
    """

    matrix: np.ndarray
    household_ids: list
    base_mean: np.ndarray
    excluded: list = field(default_factory=list)


def build_profile_matrix(profiles):
    rows = []
    ids = []
    base = []
    excluded = []
    clipped = 0
    for prof in profiles:
        mu_bar = float(prof.mu[NORMAL].mean())
        if mu_bar <= 0:
            excluded.append(prof.entity)
            continue
        row = np.concatenate([prof.mu[LOW], prof.mu[NORMAL], prof.mu[HIGH]]) / mu_bar
        clipped += int((row < 0).sum())
        rows.append(np.maximum(row, 0.0))
        ids.append(prof.entity)
        base.append(mu_bar)
    if excluded:
        warnings.warn(
            f"excluded {len(excluded)} household(s) with non-positive baseline"
        )
    if clipped:
        warnings.warn(f"clipped {clipped} negative fitted response(s) to zero")
    if not rows:
        raise ClusteringError("no household has a positive baseline response")
    return ProfileMatrix(np.vstack(rows), ids, np.array(base), excluded)


@dataclass
class NmfFactors:
    w: np.ndarray          # (n, r) household loadings
    h: np.ndarray          # (r, m) basis profiles
    errors: np.ndarray     # Frobenius reconstruction error per iteration
    converged: bool


def check_rank(r, shape):
    """Raise unless nmf_factorize accepts rank r for a matrix of this shape."""
    if not 1 <= r <= min(shape):
        raise ClusteringError(f"rank {r} outside 1..{min(shape)}")


def check_k(k, n):
    """Raise unless kmedoids accepts k clusters of n points."""
    if not 1 <= k <= n:
        raise ClusteringError(f"k={k} outside 1..{n}")


def nmf_factorize(m, r=5, seed=0, max_iter=500, tol=1e-5):
    """Multiplicative-update NMF minimizing the Frobenius reconstruction error.

    Factors initialize as |N(0,1)| * sqrt(mean(m) / r); updates are

        w <- w * (m h') / (w h h')      h <- h * (w' m) / (w' w h)

    with denominators floored at 1e-12. Stops when the relative error
    improvement drops below tol. The error sequence is non-increasing.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ClusteringError("matrix must be 2-d")
    if not np.isfinite(m).all():
        raise ClusteringError("matrix has non-finite entries")
    if (m < 0).any():
        raise ClusteringError("matrix has negative entries")
    check_rank(r, m.shape)

    rng = np.random.default_rng(seed)
    scale = np.sqrt(m.mean() / r)
    w = np.abs(rng.standard_normal((m.shape[0], r))) * scale
    h = np.abs(rng.standard_normal((r, m.shape[1]))) * scale

    errors = [float(np.linalg.norm(m - w @ h))]
    converged = False
    for _ in range(max_iter):
        w = w * (m @ h.T) / np.maximum(w @ h @ h.T, NMF_EPS)
        h = h * (w.T @ m) / np.maximum(w.T @ w @ h, NMF_EPS)
        err = float(np.linalg.norm(m - w @ h))
        prev = errors[-1]
        errors.append(err)
        if prev > 0 and (prev - err) / prev < tol:
            converged = True
            break
    return NmfFactors(w, h, np.array(errors), converged)


@dataclass
class Clustering:
    labels: np.ndarray             # (n,) cluster index per point
    k: int
    medoids: np.ndarray = None     # (k,) row indices, sorted; None for random
    cost: float = None             # sum of point-to-medoid distances

    def members(self, label):
        return np.flatnonzero(self.labels == label)


def _assign(dist, medoids):
    """Nearest medoid per point, ties to the lowest medoid row index."""
    sub = dist[:, medoids]
    return np.argmin(sub, axis=1)


def pairwise_distances(points):
    """Euclidean distances between the rows of points (n, d); returns (n, n).

    The squared differences are summed one column at a time in column order,
    the order of a plain per-pair loop; tests/test_clustering.py pins the
    matrix bit for bit to such a reference, which a pairwise .sum(axis=2)
    misses from 8 columns on.
    """
    n = points.shape[0]
    dist = np.zeros((n, n))
    for c in range(points.shape[1]):
        dist += (points[:, None, c] - points[None, :, c]) ** 2
    return np.sqrt(dist, out=dist)


def kmedoids(points, k):
    """Full PAM: greedy BUILD then best-improvement SWAP passes.

    Distances are unsquared Euclidean and the algorithm is deterministic.
    Fewer distinct rows than k is an error.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    check_k(k, n)
    if len(np.unique(points, axis=0)) < k:
        raise ClusteringError(f"fewer than k={k} distinct points")

    dist = pairwise_distances(points)

    # BUILD: start from the 1-medoid optimum, then greedily add the point
    # that lowers total cost the most (ties to the lowest row index)
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    nearest = dist[:, medoids[0]].copy()
    while len(medoids) < k:
        gains = np.minimum(dist, nearest[:, None]).sum(axis=0)
        gains[medoids] = np.inf
        new = int(np.argmin(gains))
        medoids.append(new)
        nearest = np.minimum(nearest, dist[:, new])

    # SWAP: replace (medoid, candidate) pairs while any swap improves cost
    medoids = sorted(medoids)
    cost = dist[:, medoids].min(axis=1).sum()
    improved = True
    while improved:
        improved = False
        best = (0.0, None, None)
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        for mi, m in enumerate(medoids):
            others = [x for x in medoids if x != m]
            base = (
                dist[:, others].min(axis=1)
                if others
                else np.full(n, np.inf)
            )
            for cand in range(n):
                if in_set[cand]:
                    continue
                new_cost = np.minimum(base, dist[:, cand]).sum()
                delta = new_cost - cost
                if delta < best[0] - 1e-12:
                    best = (delta, mi, cand)
        if best[1] is not None:
            medoids[best[1]] = best[2]
            medoids = sorted(medoids)
            cost = dist[:, medoids].min(axis=1).sum()
            improved = True

    medoids = np.array(sorted(medoids))
    labels = _assign(dist, medoids)
    cost = float(dist[np.arange(n), medoids[labels]].sum())
    return Clustering(labels=labels, k=k, medoids=medoids, cost=cost)


def random_clustering(n, k, seed):
    """Uniform random labels; baseline for cluster-quality comparisons."""
    labels = np.random.default_rng(seed).integers(0, k, size=n)
    return Clustering(labels=labels, k=k)


def calinski_harabasz(vectors, labels, k=None):
    """Cluster-separation score on the given record vectors.

    It sums squared distances of cluster means to the overall mean
    (unweighted) and divides by the sum over clusters of the average
    within-cluster squared distance:

        (n - k) * sum_l ||c_l - c||^2
        -----------------------------------------------
        (k - 1) * sum_l (1/|C_l|) sum_{i in l} ||y_i - c_l||^2

    A perfectly tight clustering (zero within-cluster spread) has no finite
    score and raises.
    """
    vectors = np.asarray(vectors, dtype=float)
    labels = np.asarray(labels)
    n = vectors.shape[0]
    if labels.shape != (n,):
        raise ClusteringError("labels do not match the record matrix")
    if k is None:
        k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if k < 2 or (counts == 0).any():
        raise ClusteringError("need at least 2 non-empty clusters")
    if n <= k:
        raise ClusteringError("need more records than clusters")

    overall = vectors.mean(axis=0)
    between = 0.0
    within = 0.0
    for l in range(k):
        members = vectors[labels == l]
        center = members.mean(axis=0)
        between += float(((center - overall) ** 2).sum())
        within += ((members - center) ** 2).sum() / len(members)
    if within == 0.0:
        raise PerfectlyTightClusteringError("perfectly tight clustering")
    return (n - k) * between / ((k - 1) * within)


@dataclass
class ScoreVariants:
    raw: float
    normalized: float
    special: float          # None when no special-tariff records exist
    excluded_zero_mean: list = field(default_factory=list)
    excluded_no_special: list = field(default_factory=list)


def score_variants(kwh, tariff, labels, household_ids=None, k=None):
    """Calinski-Harabasz on three record variants of the raw consumption.

    (a) raw records, (b) records divided by the household's overall mean,
    (c) normalized records restricted to special-tariff (Low/High)
    half-hours. For (b) and (c) zero-mean households are excluded; for (c)
    households with no special-tariff exposure are excluded and the
    remaining exposure masks must coincide. With no special-tariff records
    at all, variant (c) is None.
    """
    kwh = np.asarray(kwh, dtype=float)
    tariff = np.asarray(tariff)
    n = kwh.shape[0]
    if household_ids is None:
        household_ids = [str(i) for i in range(n)]
    flat = kwh.reshape(n, -1)
    labels = np.asarray(labels)

    raw = calinski_harabasz(flat, labels, k=k)

    means = flat.mean(axis=1)
    pos = means > 0
    excluded_zero = [household_ids[i] for i in np.flatnonzero(~pos)]
    if excluded_zero:
        warnings.warn(f"excluded {len(excluded_zero)} zero-mean household(s)")
    if pos.sum() <= (k or labels.max() + 1):
        raise ClusteringError("too few households left after exclusions")
    norm = flat[pos] / means[pos, None]
    normalized = calinski_harabasz(norm, labels[pos], k=k)

    special_masks = ((tariff == LOW) | (tariff == HIGH)).reshape(n, -1)
    exposure = special_masks.sum(axis=1)
    has_special = exposure > 0
    if not has_special.any():
        return ScoreVariants(raw, normalized, None, excluded_zero, [])
    keep = pos & has_special
    excluded_no_special = [household_ids[i] for i in np.flatnonzero(pos & ~has_special)]
    if excluded_no_special:
        warnings.warn(
            f"excluded {len(excluded_no_special)} household(s) with no special-tariff exposure"
        )
    masks = special_masks[keep]
    if not (masks == masks[0]).all():
        raise ClusteringError("special-tariff masks differ across households")
    restricted = (flat[keep] / means[keep, None])[:, masks[0]]
    special = calinski_harabasz(restricted, labels[keep], k=k)
    return ScoreVariants(raw, normalized, special, excluded_zero, excluded_no_special)


HOT_MONTHS = frozenset({4, 5, 6, 7, 8, 9})


def classical_features(kwh, dates):
    """Eight per-household summary features for the baseline clustering.

    Min/max/mean consumption over the hot season (April-September) and the
    cold season, plus the average half-hour (1-based) of the daily peak and
    trough. An empty season falls back to the full record with a warning.
    """
    kwh = np.asarray(kwh, dtype=float)
    n, n_days, _ = kwh.shape
    hot_days = np.array([d.month in HOT_MONTHS for d in dates])
    features = np.empty((n, 8))
    for season, mask in (("hot", hot_days), ("cold", ~hot_days)):
        if not mask.any():
            warnings.warn(f"no {season}-season days; using the full record")
    for i in range(n):
        cols = []
        for mask in (hot_days, ~hot_days):
            seg = kwh[i, mask] if mask.any() else kwh[i]
            cols.extend([seg.min(), seg.max(), seg.mean()])
        peaks = kwh[i].argmax(axis=1) + 1
        troughs = kwh[i].argmin(axis=1) + 1
        cols.extend([peaks.mean(), troughs.mean()])
        features[i] = cols
    return features


def classical_feature_clustering(features, k):
    """Standardize the features (dropping zero-variance columns) and PAM."""
    features = np.asarray(features, dtype=float)
    std = features.std(axis=0)
    keep = std > 0
    if not keep.all():
        warnings.warn(f"dropping {int((~keep).sum())} zero-variance feature(s)")
    if not keep.any():
        raise ClusteringError("every feature is constant")
    z = (features[:, keep] - features[:, keep].mean(axis=0)) / std[keep]
    return kmedoids(z, k)


def export_assignments_csv(household_ids, clustering, path):
    write_csv(path, ASSIGNMENTS_HEADER, (
        [hid, int(label)] for hid, label in zip(household_ids, clustering.labels)
    ))


def read_assignments_csv(path):
    rows = read_csv(path, ASSIGNMENTS_HEADER, ClusteringError)
    return [row[0] for row in rows], np.array([int(row[1]) for row in rows])
