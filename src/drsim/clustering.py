"""Clustering households by tariff responsiveness.

The pipeline is: turn the (N, 3, 48) counterfactual response profiles of a
causality.ResponseProfiles into a nonnegative (N, 144) matrix, compress it
with a rank-r NMF, then k-medoids (full PAM) on the household loading
vectors. The matrix is a whole-array reduction over all households at once;
the classical baseline features are reduced over fixed blocks of households,
so a season's copy of the consumption exists for one block at a time.
Cluster quality is scored with the Calinski-Harabasz statistic in the
variant used throughout this project (between-cluster sum unweighted by
cluster size, within-cluster variances averaged per cluster), on three
record variants that record_variants builds once and score_variants scores
for any labelling; the normalized records are kept as the raw rows and their
means, and each cluster's copy is divided as it is taken.
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
    baseline is not positive are excluded (with a warning). kept holds the
    rows of the input profiles that made it into the matrix.
    """

    matrix: np.ndarray
    household_ids: list
    base_mean: np.ndarray
    kept: np.ndarray
    excluded: list = field(default_factory=list)


def build_profile_matrix(profiles):
    """ProfileMatrix of a causality.ResponseProfiles."""
    mu_bar = profiles.mu[:, NORMAL].mean(axis=1)
    dropped = mu_bar <= 0
    excluded = [hid for hid, drop in zip(profiles.ids, dropped) if drop]
    if excluded:
        warnings.warn(f"excluded {len(excluded)} household(s) with non-positive baseline")
    kept = np.flatnonzero(~dropped)
    if not len(kept):
        raise ClusteringError("no household has a positive baseline response")
    rows = profiles.mu[kept].reshape(len(kept), -1) / mu_bar[kept, None]
    clipped = int((rows < 0).sum())
    if clipped:
        warnings.warn(f"clipped {clipped} negative fitted response(s) to zero")
    return ProfileMatrix(np.maximum(rows, 0.0), [profiles.ids[i] for i in kept],
                         mu_bar[kept], kept, excluded)


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


def _residual_norm(m, w, h, out):
    """The Frobenius norm of m - w @ h, worked out in out (m's shape). The
    squares are summed by numpy's own reduction: np.linalg.norm's BLAS dot
    product rounds differently on another thread count."""
    residual = np.subtract(m, np.matmul(w, h, out=out), out=out)
    return float(np.sqrt(np.square(residual, out=out).sum()))


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

    # w @ h, the one temporary as large as m, goes into one buffer: allocated
    # on each use, its pages can be mapped and faulted in afresh each time,
    # which doubled a trial-scale NMF when the heap held no free block as large
    wh = np.empty_like(m)
    errors = [_residual_norm(m, w, h, wh)]
    converged = False
    for _ in range(max_iter):
        w = w * (m @ h.T) / np.maximum(np.matmul(w, h, out=wh) @ h.T, NMF_EPS)
        h = h * (w.T @ m) / np.maximum(w.T @ w @ h, NMF_EPS)
        err = _residual_norm(m, w, h, wh)
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
    return _calinski_harabasz(np.asarray(vectors, dtype=float), np.asarray(labels), k)


def _calinski_harabasz(vectors, labels, k, overall=None, rows=None, means=None):
    """calinski_harabasz of the records vectors, or, given rows, of the
    records vectors[rows] / means[:, None], each cluster's copy divided as it
    is taken; overall is the records' mean, worked out here if None."""
    n = vectors.shape[0] if rows is None else len(rows)
    if labels.shape != (n,):
        raise ClusteringError("labels do not match the record matrix")
    if k is None:
        k = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=k)
    if k < 2 or (counts == 0).any():
        raise ClusteringError("need at least 2 non-empty clusters")
    if n <= k:
        raise ClusteringError("need more records than clusters")

    if overall is None:
        overall = vectors.mean(axis=0)
    between = 0.0
    within = 0.0
    for l in range(k):
        in_l = labels == l
        if rows is None:
            members = vectors[in_l]
        else:
            members = vectors[rows[in_l]]
            members /= means[in_l, None]
        center = members.mean(axis=0)
        between += float(((center - overall) ** 2).sum())
        members -= center                   # a copy: centred and squared in place
        within += np.square(members, out=members).sum() / len(members)
        del members                         # before the next cluster's copy
    if within == 0.0:
        raise PerfectlyTightClusteringError("perfectly tight clustering")
    return (n - k) * between / ((k - 1) * within)


@dataclass
class VariantRecords:
    """The three record sets of score_variants, which do not depend on the
    labels, each with its overall mean (*_mean). raw (n, T * 48) is a view of
    the consumption. The normalized records, the raw rows normalized_rows
    each divided by its mean (means), are never held whole: each cluster's
    copy is divided as it is taken. special (None without any special-tariff
    record) holds the normalized special-tariff cells of the raw rows
    special_rows."""

    raw: np.ndarray
    raw_mean: np.ndarray
    normalized_rows: np.ndarray
    means: np.ndarray
    normalized_mean: np.ndarray
    special: np.ndarray
    special_rows: np.ndarray
    special_mean: np.ndarray
    excluded_zero_mean: list
    excluded_no_special: list


def _mean_of_rows(flat, rows, means):
    """(flat[rows] / means[:, None]).mean(axis=0), the rows added one at a
    time in order, without that array: numpy sums a C-ordered array's axis 0
    the same way, so the bits are the same."""
    total = flat[rows[0]] / means[0]
    for i, mean in zip(rows[1:].tolist(), means[1:].tolist()):
        total += flat[i] / mean
    total /= len(rows)
    return total


def record_variants(kwh, tariff, household_ids=None):
    """VariantRecords of consumption kwh (n, T, 48) under tariff (n, T, 48).

    Zero-mean households are left out of the normalized and special records,
    and households with no special-tariff exposure out of the special
    records, each with a warning; the remaining exposure masks must coincide.
    The records hold the row means, not a normalized copy of the consumption;
    the special records are gathered from the raw rows, then divided.
    """
    kwh = np.asarray(kwh, dtype=float)
    n = kwh.shape[0]
    if household_ids is None:
        household_ids = [str(i) for i in range(n)]
    flat = kwh.reshape(n, -1)
    means = flat.mean(axis=1)
    pos = means > 0
    excluded_zero = [household_ids[i] for i in np.flatnonzero(~pos)]
    if excluded_zero:
        warnings.warn(f"excluded {len(excluded_zero)} zero-mean household(s)")
    normalized_rows = np.flatnonzero(pos)
    normalized_mean = (_mean_of_rows(flat, normalized_rows, means[pos])
                       if pos.any() else None)

    tariff = np.asarray(tariff)
    special_masks = ((tariff == LOW) | (tariff == HIGH)).reshape(n, -1)
    has_special = special_masks.any(axis=1)
    excluded_no_special = ([household_ids[i] for i in np.flatnonzero(pos & ~has_special)]
                           if has_special.any() else [])
    if excluded_no_special:
        warnings.warn(f"excluded {len(excluded_no_special)} household(s) "
                      "with no special-tariff exposure")
    keep = pos & has_special
    special = special_mean = None
    if keep.any():
        masks = special_masks[keep]
        if not (masks == masks[0]).all():
            raise ClusteringError("special-tariff masks differ across households")
        # the cells gathered, then transposed: the Fortran order of the
        # column-masked copy these records always were, so the scores keep their bits
        special = flat.T[np.ix_(np.flatnonzero(masks[0]), np.flatnonzero(keep))].T
        special /= means[keep, None]
        special_mean = special.mean(axis=0)
    return VariantRecords(flat, flat.mean(axis=0), normalized_rows, means[pos], normalized_mean,
                          special, np.flatnonzero(keep), special_mean,
                          excluded_zero, excluded_no_special)


@dataclass
class ScoreVariants:
    raw: float
    normalized: float
    special: float          # None when no special-tariff records exist


def score_variants(records, labels, k=None):
    """Calinski-Harabasz of labels (one per raw record) on each of records'
    three variants: (a) the raw records, (b) the normalized records, (c) the
    normalized special-tariff records, None without any."""
    labels = np.asarray(labels)
    raw = _calinski_harabasz(records.raw, labels, k, records.raw_mean)
    rows = records.normalized_rows
    if len(rows) <= (k or labels.max() + 1):
        raise ClusteringError("too few households left after exclusions")
    normalized = _calinski_harabasz(records.raw, labels[rows], k, records.normalized_mean,
                                    rows, records.means)
    special = (None if records.special is None else
               _calinski_harabasz(records.special, labels[records.special_rows], k,
                                  records.special_mean))
    return ScoreVariants(raw, normalized, special)


HOT_MONTHS = frozenset({4, 5, 6, 7, 8, 9})
_FEATURE_ROWS = 64   # households per block of classical_features


def classical_features(kwh, dates):
    """Eight per-household summary features for the baseline clustering.

    Min/max/mean consumption over the hot season (April-September) and the
    cold season, plus the average half-hour (1-based) of the daily peak and
    trough. An empty season falls back to the full record with a warning.

    Households are reduced _FEATURE_ROWS at a time, each season's days taken
    from one block into a C-ordered copy; each household's min, max and mean
    run over the same values in the same order as over the whole array.
    """
    kwh = np.asarray(kwh, dtype=float)
    hot_days = np.array([d.month in HOT_MONTHS for d in dates])
    seasons = []
    for season, mask in (("hot", hot_days), ("cold", ~hot_days)):
        if not mask.any():
            warnings.warn(f"no {season}-season days; using the full record")
            mask = np.ones_like(mask)
        seasons.append(np.flatnonzero(mask))
    features = np.empty((len(kwh), 8))
    for start in range(0, len(kwh), _FEATURE_ROWS):
        block = kwh[start:start + _FEATURE_ROWS]
        columns = []
        for days in seasons:
            seg = np.take(block, days, axis=1).reshape(len(block), -1)
            columns += [seg.min(axis=1), seg.max(axis=1), seg.mean(axis=1)]
        columns += [(block.argmax(axis=2) + 1).mean(axis=1),
                    (block.argmin(axis=2) + 1).mean(axis=1)]
        features[start:start + _FEATURE_ROWS] = np.stack(columns, axis=1)
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
    """Household ids and cluster labels in file order. ClusteringError, naming
    path and line, for a row that is not an id and a non-negative integer
    cluster, or an id listed twice."""
    first_lines, labels = {}, []
    for line, row in enumerate(read_csv(path, ASSIGNMENTS_HEADER, ClusteringError), start=2):
        try:
            hid, label = row
            label = int(label)
        except ValueError:
            label = -1
        if label < 0:
            raise ClusteringError(f"{path}: line {line} ({','.join(row)}) needs a household id "
                                  "and a non-negative integer cluster")
        if hid in first_lines:
            raise ClusteringError(f"{path}: line {line} lists household {hid} again, "
                                  f"first listed on line {first_lines[hid]}")
        first_lines[hid] = line
        labels.append(label)
    return list(first_lines), np.array(labels)
