"""Averaged orbit metrics, almost-period scans and the point classifier.

The averaged distance between a point and its translate is estimated
along a window schedule; almost periods of three strengths (mean /
weyl / bohr) are collected by brute-force scans over a finite range of
translates.  Relative denseness is undecidable from finite data, so the
classifier only ever reports finite-scale evidence, never theorems.
"""

from __future__ import annotations

import math

import numpy as np

from .folner import (EstimatorConfig, FolnerSchedule, MeanEstimate,
                     WindowSegments, max_sliding_sums, partial_means)
from .points import (CylinderSums, PointGen, Record, Track, mismatch_track,
                     shift)

__all__ = [
    "ScanBudget",
    "AlmostPeriodScan",
    "ClassificationReport",
    "averaged_D",
    "superlevel_density",
    "almost_period_scan",
    "classify_point",
]

KINDS = ("mean", "weyl", "bohr")


class ScanBudget(Record):
    """Truncations used by every scan; recorded verbatim in all outputs."""

    schedule: FolnerSchedule
    metric_radius: int = 16
    estimator: EstimatorConfig = EstimatorConfig()
    weyl_index: int | None = None        # window index for the uniform mean
    weyl_shift_span: int | None = None   # |s| <= span; default 4 * |B_weyl|
    bohr_horizon: int = 512

    def resolved_weyl_index(self) -> int:
        return self.weyl_index if self.weyl_index is not None else len(self.schedule)

    def resolved_weyl_span(self) -> int:
        if self.weyl_shift_span is not None:
            return self.weyl_shift_span
        _, length = self.schedule.window(self.resolved_weyl_index())
        return 4 * length

    def ranges(self, kinds=KINDS) -> tuple[tuple[int, int], dict]:
        """The run [lo, hi) of coordinates an orbit profile of ``kinds``
        reads, and the [lo, hi) each of those kinds reads in it."""
        ranges = {}
        if "mean" in kinds:
            ranges["mean"] = self.schedule.span()
        if "weyl" in kinds:
            start, length = self.schedule.window(self.resolved_weyl_index())
            span = self.resolved_weyl_span()
            ranges["weyl"] = (start - span, start + span + length)
        if "bohr" in kinds:
            ranges["bohr"] = (-self.bohr_horizon, self.bohr_horizon + 1)
        run = (min([0] + [lo for lo, _ in ranges.values()]),
               max([1] + [hi for _, hi in ranges.values()]))
        return run, ranges

    def fingerprint(self) -> dict:
        return {
            "schedule": self.schedule.describe(),
            "metric_radius": self.metric_radius,
            "tail": self.estimator.tail,
            "convergence_tol": self.estimator.convergence_tol,
            "oscillation_threshold": self.estimator.oscillation_threshold,
            "weyl_index": self.resolved_weyl_index(),
            "weyl_shift_span": self.resolved_weyl_span(),
            "bohr_horizon": self.bohr_horizon,
        }


# ---------------------------------------------------------------------------
# averaged metrics along the orbit
# ---------------------------------------------------------------------------


def averaged_D(x: PointGen, t: int, schedule: FolnerSchedule,
               radius: int = 16,
               config: EstimatorConfig = EstimatorConfig()) -> MeanEstimate:
    """Estimate of the averaged distance between x and t.x.

    Partial n is the average of s -> d(s.x, (t+s).x) over B_n.  Values
    lie in [0, 1]; at t = 0 the track is identically zero.
    """
    lo, hi = schedule.span()
    d = mismatch_track(x, shift(x, t), lo, hi, radius)
    return partial_means(Track(lo, d), schedule, config=config)


def superlevel_density(x: PointGen, t: int, delta: float,
                       schedule: FolnerSchedule, radius: int = 16,
                       config: EstimatorConfig = EstimatorConfig()) -> MeanEstimate:
    """Density estimate of {s : d(s.x, (t+s).x) >= delta}."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    lo, hi = schedule.span()
    d = mismatch_track(x, shift(x, t), lo, hi, radius)
    return partial_means(Track(lo, (d >= delta).astype(float)),
                         schedule, config=config)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


class OrbitProfile(Record):
    """Per-translate distances at one budget: everything a scan needs.

    A ``weyl_value`` or ``bohr_value`` at or above the profile's ``below``
    may be a lower bound of the exact value rather than the value.
    """

    t_values: np.ndarray
    mean_tail_max: np.ndarray
    mean_converged: np.ndarray      # bool per t
    weyl_value: np.ndarray
    bohr_value: np.ndarray
    budget: ScanBudget


def orbit_profile(x: PointGen, t_values, budget: ScanBudget, kinds=KINDS,
                  below: float | None = None) -> OrbitProfile:
    """Mean / weyl / bohr distance summaries for each translate t.

    Kinds not requested are skipped and reported as NaN columns.  Each
    summary divides an exact integer (a window sum, the largest sliding
    sum or the largest cylinder sum) once, so it is correctly rounded.
    A translate t > 0 whose -t is also requested shares one mismatch
    mask and one sliding pass with it: the run of -t is the run of t
    moved by t.  A window sum of the cylinder sums S is the sum over
    j = 0..2r of 2^(r - |j - r|) times the mismatch count of the window
    moved by j, so the mean partials come from counts; S is built only
    where the bounds on a range's largest S (0 without a mismatch within
    r of it, at least 2^r with one inside, at most C) leave a value open.

    ``below`` is the largest epsilon the caller compares the weyl and
    bohr values against.  A mismatch inside the shift-0 weyl window, a
    metric radius from either end, adds the whole kernel weight C to
    that window's sum, so the count of those mismatches over the window
    length bounds the weyl value from below.  Where that bound reaches
    ``below`` for t and its pair, it is their weyl value, and the
    sliding maximum is skipped; where 2^r / C reaches it, it is the
    bohr value of a translate with a mismatch in the horizon.
    """
    t_values = np.asarray(sorted(int(t) for t in t_values), dtype=np.int64)
    sched = budget.schedule
    (lo_needed, hi_needed), ranges = budget.ranges(tuple(kinds))
    part = {k: (lo - lo_needed, hi - lo_needed)
            for k, (lo, hi) in ranges.items()}

    # one codes sample serves every translate: x on the needed range
    # (widened by the metric radius) against x moved by t
    radius = budget.metric_radius
    base = lo_needed - radius + int(t_values.min(initial=0))
    codes = x.codes(base, hi_needed + radius + int(t_values.max(initial=0)))
    codes = codes.astype(np.min_scalar_type(len(x.alphabet) - 1))
    a = lo_needed - radius - base
    n = hi_needed - lo_needed + 2 * radius
    c = 3 * 2 ** radius - 2
    # the mask windows counted: each mean and bohr range widened by 2r
    # and moved by r, then each tail window moved by j = 0..2r
    counted = [k for k in ("mean", "bohr") if k in part]
    windows = [w for p, q in map(part.get, counted)
               for w in ((p, q - p + 2 * radius), (p + radius, q - p))]
    if "mean" in part:
        # the verdict puts the tail partials over their common length m
        # and compares integers, so a spread that ties the tolerance (at
        # its exact binary value) is decided exactly, not by rounding
        k = min(budget.estimator.tail, len(sched))
        tail_lengths = sched.lengths()[-k:]
        m = math.lcm(*tail_lengths.tolist())
        scales = [m // n for n in tail_lengths.tolist()]
        tol_num, tol_den = budget.estimator.convergence_tol.as_integer_ratio()
        weights = 2 ** (radius - np.abs(np.arange(-radius, radius + 1)))
        windows += [(start - lo_needed + j, length) for start, length
                    in sched.windows[-k:] for j in range(2 * radius + 1)]
    settle = None
    if "weyl" in part:
        w_start, w_len = sched.window(budget.resolved_weyl_index())
        # the mask entries whose whole kernel lies in the shift-0 window
        inner = (w_start - lo_needed + 2 * radius, w_start - lo_needed + w_len)
        if below is not None and inner[0] < inner[1]:
            settle = inner

    # a unit is a translate t and the lead l of its mask
    # codes[a - l + i] != codes[a - l + t + i], i < n + l: the sums of t
    # sit at offset l, and for a pair (l = t > 0) those of -t at 0; a
    # lone translate (l = 0) reads the n coordinates it always did
    distinct = set(t_values.tolist())
    units = [(t, t if t > 0 and -t in distinct else 0)
             for t in sorted(distinct) if not (t < 0 and -t in distinct)]

    def mismatch(t, i, w, out):
        """The mask codes[i + j] != codes[i + t + j], j < w, in out."""
        return np.not_equal(codes[i:i + w], codes[i + t:i + t + w], out=out[:w])

    def bounds(t, lo, unit):
        """The mismatch-count bounds of the unit's weyl values, or None
        unless every one reaches ``below``."""
        p, q = settle
        found = []
        for _, offset in unit:
            mask = mismatch(t, lo + offset + p, q - p, cyl.mask)
            found.append(int(np.count_nonzero(mask)) / w_len)
            if found[-1] < below:
                return None
        return found

    # one workspace, sized for the widest unit, reused for each of them
    widest = max((lead for _, lead in units), default=0)
    cyl = CylinderSums(n + widest)
    if counted:
        # the counts read a mask of their own, over the windows' hull
        kept = (min(p for p, _ in windows), max(p + w for p, w in windows))
        segments = WindowSegments([(p - kept[0], w) for p, w in windows])
        seen = np.empty(kept[1] - kept[0] + widest, dtype=bool)
        pair = {k: slice(2 * i, 2 * i + 2) for i, k in enumerate(counted)}
    rows = {}
    for t, lead in units:
        lo = a - lead
        unit = ((t, lead), (-t, 0)) if lead else ((t, 0),)
        weyl = settle and bounds(t, lo, unit)
        whole = None
        if "weyl" in part and not weyl:
            # one sliding pass over the union of the unit's weyl runs
            mismatch(t, lo, n + lead, cyl.mask)
            whole, _ = cyl.counts(radius, n + lead)
            p, q = part["weyl"]
            weyl = [top / (c * w_len) for top in max_sliding_sums(
                whole[p:q + lead], w_len,
                [(offset, offset + q - p - w_len) for _, offset in unit])]
        if counted:
            mismatch(t, lo + kept[0], kept[1] - kept[0] + lead, seen)
        for i, (u, offset) in enumerate(unit):
            def s(p, q):    # S of u on [p, q) of the offsets from lo_needed
                if whole is not None:
                    return whole[offset + p:offset + q]
                mismatch(t, lo + offset + p, q - p + 2 * radius, cyl.mask)
                return cyl.counts(radius, q - p + 2 * radius)[0]
            row = [np.nan, False, np.nan, np.nan]
            if counted:
                counts = segments.sums(lambda p, q: seen[p + offset:q + offset])
            if "mean" in part:
                sums = counts[2 * len(counted):].reshape(k, -1) @ weights
                q = [p * f for p, f in zip(sums.tolist(), scales)]
                spread = (max(q) - min(q)) * tol_den
                wide, inside = counts[pair["mean"]]
                row[0] = float((sums / (c * tail_lengths)).max())
                low = 2 ** radius if inside else 1
                row[1] = (not wide or spread < tol_num * low * m
                          or spread < tol_num * c * m and spread
                          < tol_num * int(s(*part["mean"]).max()) * m)
            if "weyl" in part:
                row[2] = weyl[i]
            if "bohr" in part:
                wide, inside = counts[pair["bohr"]]
                floor = 2 ** radius / c
                row[3] = (0.0 if not wide else floor
                          if inside and below is not None and floor >= below
                          else int(s(*part["bohr"]).max()) / c)
            rows[u] = row
    rows = np.array([rows[t] for t in t_values.tolist()], dtype=object)
    mean_tm, conv, weyl, bohr = rows.reshape(-1, 4).T
    return OrbitProfile(t_values, mean_tm.astype(float), conv.astype(bool),
                        weyl.astype(float), bohr.astype(float), budget)


class AlmostPeriodScan(Record):
    epsilon: float
    kind: str
    scan_range: tuple[int, int]
    periods: tuple[int, ...]
    max_gap: int
    budget_fingerprint: dict

    def describe(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "kind": self.kind,
            "scan_range": list(self.scan_range),
            "periods": list(self.periods),
            "max_gap": self.max_gap,
            "budget": self.budget_fingerprint,
        }


def _max_gap(periods, lo, hi) -> int:
    """Largest difference of consecutive periods; range endpoints are sentinels."""
    pts = sorted({lo, hi, *periods})
    return max(b - a for a, b in zip(pts, pts[1:])) if len(pts) > 1 else 0


def _scan_from_profile(profile: OrbitProfile, epsilon: float, kind: str,
                       scan_range: tuple[int, int]) -> AlmostPeriodScan:
    values = {"mean": profile.mean_tail_max,
              "weyl": profile.weyl_value,
              "bohr": profile.bohr_value}[kind]
    mask = values < epsilon
    periods = tuple(int(t) for t in profile.t_values[mask])
    gap = _max_gap(periods, scan_range[0], scan_range[1])
    return AlmostPeriodScan(epsilon, kind, scan_range, periods, gap,
                            profile.budget.fingerprint())


def almost_period_scan(x: PointGen, epsilon: float, kind: str,
                       scan_range: tuple[int, int],
                       budget: ScanBudget) -> AlmostPeriodScan:
    """All translates t in the range passing the kind's distance test.

    mean: the tail max of the averaged-distance partials stays under
    epsilon.  weyl: the uniform (shift-sup) window average at the
    budget's index stays under epsilon.  bohr: the pointwise sup of
    d(s.x, (t+s).x) over the horizon stays under epsilon.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    lo, hi = scan_range
    if hi < lo:
        raise ValueError("scan range is empty")
    profile = orbit_profile(x, range(lo, hi + 1), budget, kinds=(kind,),
                            below=epsilon)
    return _scan_from_profile(profile, epsilon, kind, scan_range)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

EVIDENCE_FOR = "evidence-for"
EVIDENCE_AGAINST = "evidence-against"
UNDECIDED = "undecided"


class ClassificationReport(Record):
    scans: dict                      # kind -> {epsilon -> AlmostPeriodScan}
    verdicts: dict                   # kind -> verdict string
    raw_verdicts: dict               # before hierarchy reconciliation
    eps_grid: tuple[float, ...]
    scan_range: tuple[int, int]
    gap_threshold: float
    budget_fingerprint: dict

    def describe(self) -> dict:
        return {
            "eps_grid": list(self.eps_grid),
            "scan_range": list(self.scan_range),
            "gap_threshold": self.gap_threshold,
            "verdicts": dict(self.verdicts),
            "raw_verdicts": dict(self.raw_verdicts),
            "scans": {kind: {str(eps): scan.describe()
                             for eps, scan in per.items()}
                      for kind, per in self.scans.items()},
            "budget": self.budget_fingerprint,
        }


def _kind_verdict(per_eps: dict, kind: str, profile: OrbitProfile,
                  scan_range, gap_threshold: float) -> str:
    width = scan_range[1] - scan_range[0]
    if all(scan.max_gap <= gap_threshold * width for scan in per_eps.values()):
        return EVIDENCE_FOR
    converged_majority = bool(np.mean(profile.mean_converged) > 0.5)
    for scan in per_eps.values():
        if scan.periods == (0,):
            if kind != "mean" or converged_majority:
                return EVIDENCE_AGAINST
    return UNDECIDED


def classify_point(x: PointGen, eps_grid, budget: ScanBudget,
                   scan_range: tuple[int, int] = (-256, 256),
                   gap_threshold: float = 0.2) -> ClassificationReport:
    """Finite-scale almost-periodicity evidence for all three kinds.

    One orbit profile is computed per translate and shared by every
    kind and epsilon; the largest epsilon is its ``below``.  Verdicts are reconciled with the seminorm
    hierarchy: evidence-for propagates downward from bohr, and
    evidence-against propagates upward from mean, so reported verdicts
    never contradict the ordering of the underlying distances.
    """
    eps_grid = tuple(sorted(float(e) for e in eps_grid))
    if not eps_grid:
        raise ValueError("epsilon grid must be nonempty")
    lo, hi = scan_range
    profile = orbit_profile(x, range(lo, hi + 1), budget, below=eps_grid[-1])

    scans = {kind: {eps: _scan_from_profile(profile, eps, kind, scan_range)
                    for eps in eps_grid}
             for kind in KINDS}
    raw = {kind: _kind_verdict(scans[kind], kind, profile, scan_range,
                               gap_threshold)
           for kind in KINDS}

    verdicts = dict(raw)
    if verdicts["bohr"] == EVIDENCE_FOR:
        verdicts["weyl"] = EVIDENCE_FOR
    if verdicts["weyl"] == EVIDENCE_FOR:
        verdicts["mean"] = EVIDENCE_FOR
    if verdicts["mean"] == EVIDENCE_AGAINST:
        verdicts["weyl"] = EVIDENCE_AGAINST
    if verdicts["weyl"] == EVIDENCE_AGAINST:
        verdicts["bohr"] = EVIDENCE_AGAINST

    return ClassificationReport(scans, verdicts, raw, eps_grid,
                                tuple(scan_range), gap_threshold,
                                budget.fingerprint())
