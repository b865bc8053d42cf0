"""Gel electrophoresis: band migration, imaging, and the decision readout.

Migration follows the standard log-length model, anchored so that the
longest ladder rung stays at the well and the tracking dye (run as a
100 bp equivalent) sits at the stop fraction of the lane when the run
ends. Intensities stay exact rationals until the moment an image is
rendered, where they are quantized to 256 gray levels.

The readout is the exact gate: a report agrees with the oracle only when
its chosen options are the exact argmax and every band and every estimate
equals its exact prediction, so a losing band that is off fails a run even
when the winner does not move.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .compiler import DYE_FRONT_BP, DYE_STOP, GEL_RESOLUTION, EncodingPlan
from .decision import DecisionMatrix, InputError, best_options
from .wetlab import WASTE, TubeState


class GelError(InputError):
    """A gel cannot be run, rendered or read as asked."""


GEL_LENGTH = 100.0  # lane length, the unit of migration distances


def ladder(longest: int) -> tuple[int, ...]:
    """Rungs every 10 bp from 10 to 200 bp, extended in 10 bp steps to `longest`."""
    top = max(200, 10 * math.ceil(longest / 10))
    return tuple(range(10, top + 1, 10))


def migrate(length, top: int) -> float:
    """Distance run by a fragment of this length beside a ladder topping at `top`."""
    value = float(length)
    if value <= 0:
        raise GelError(f"fragment length must be positive, got {length}")
    span = math.log(top) - math.log(DYE_FRONT_BP)
    travel = math.log(top) - math.log(value)
    distance = float(DYE_STOP) * GEL_LENGTH * travel / span
    return max(0.0, distance)


def decode_length(distance: float, top: int) -> float:
    """Inverse of `migrate` (lengths above the ladder top all sit at zero)."""
    span = math.log(top) - math.log(DYE_FRONT_BP)
    stop = float(DYE_STOP) * GEL_LENGTH
    return math.exp(math.log(top) - distance * span / stop)


class Band(NamedTuple):
    length: Fraction
    intensity: Fraction
    migration: float


class Lane(NamedTuple):
    label: str
    bands: tuple[Band, ...]
    scale: Fraction = Fraction(1)


class GelRun(NamedTuple):
    ladder: tuple[int, ...]
    lanes: tuple[Lane, ...]

    def sample_lanes(self) -> tuple[Lane, ...]:
        return tuple(lane for lane in self.lanes if lane.label != "ladder")


def _merge_bands(
    raw: list[tuple[int, int]], top: int, unit: int, built: dict[tuple, Band]
) -> tuple[Band, ...]:
    """Co-migrating species closer than the resolution fuse into one band.

    `raw` holds (length, count) pairs, counts in units of 1/`unit`. A band
    depends only on its cluster's pairs, `unit` and `top`, so `built`, keyed
    by all three, hands an equal cluster the `Band` already built for it."""
    clusters: list[list[tuple[int, int]]] = []
    for length, count in sorted(raw):
        if clusters and length - clusters[-1][-1][0] < GEL_RESOLUTION:
            clusters[-1].append((length, count))
        else:
            clusters.append([(length, count)])
    bands = []
    for cluster in clusters:
        key = (*cluster, unit, top)
        band = built.get(key)
        if band is None:
            weight = sum(c for _, c in cluster)
            length = Fraction(sum(l * c for l, c in cluster), weight)
            band = built[key] = Band(length, Fraction(weight, unit), migrate(length, top))
        bands.append(band)
    return tuple(bands)


@lru_cache(maxsize=8)
def ladder_lane(rungs: tuple[int, ...]) -> Lane:
    """The ladder's lane, one unit band per rung; built once per ladder."""
    bands = tuple(Band(Fraction(l), Fraction(1), migrate(l, rungs[-1])) for l in rungs)
    return Lane("ladder", bands)


def run_gel(tubes: list[TubeState]) -> GelRun:
    """Image the tubes beside a ladder covering the longest band, in the last lane.

    A lane shows each duplex of a positive count that is not waste, and
    only those size the ladder. Lanes share each distinct band, built once
    per call."""
    shown = [
        [(sp.structure.span_length, sp.count) for sp in t.species.values()
         if sp.state != WASTE and sp.is_duplex and sp.count > 0]
        for t in tubes
    ]
    rungs = ladder(max((length for raw in shown for length, _ in raw), default=0))
    built: dict[tuple, Band] = {}
    lanes = tuple(
        Lane(t.label, _merge_bands(raw, rungs[-1], t.plan.intensity_scale(), built),
             Fraction(1 << t.pcr_cycles))
        for t, raw in zip(tubes, shown)
    )
    return GelRun(rungs, lanes + (ladder_lane(rungs),))


def band_table(run: GelRun) -> str:
    """TSV: lane, length_bp, relative_intensity, migration_fraction."""
    rows = ["lane\tlength_bp\trelative_intensity\tmigration_fraction"]
    for lane in run.lanes:
        for band in lane.bands:
            frac = band.migration / GEL_LENGTH
            rows.append(
                f"{lane.label}\t{band.length}\t{band.intensity}\t{frac:.6f}"
            )
    return "\n".join(rows) + "\n"


# -- rendering -------------------------------------------------------------

def _gray(intensity: Fraction, peak: Fraction) -> int:
    # 256-level quantization happens here and nowhere earlier
    norm = intensity / peak if peak else Fraction(0)
    return 235 - round(Fraction(215) * norm)


def render(run: GelRun, fmt: str = "svg") -> str:
    if fmt == "svg":
        return _render_svg(run)
    if fmt == "text":
        return _render_text(run)
    raise GelError(f"unknown render format {fmt!r}")


def _render_svg(run: GelRun) -> str:
    lane_w, margin, top, track = 90, 40, 30, 400
    width = 2 * margin + lane_w * len(run.lanes)
    height = top + track + 50

    def y(distance: float) -> float:
        return top + track * distance / GEL_LENGTH

    peak = max(
        (b.intensity for lane in run.sample_lanes() for b in lane.bands),
        default=Fraction(1),
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#f4f1ea"/>',
    ]
    dye_y = y(float(DYE_STOP) * GEL_LENGTH)
    parts.append(
        f'<line x1="{margin}" y1="{dye_y:.2f}" x2="{width - margin}" y2="{dye_y:.2f}" '
        f'stroke="#4466aa" stroke-dasharray="4 3" stroke-width="1"/>'
    )
    for i, lane in enumerate(run.lanes):
        x = margin + i * lane_w
        parts.append(
            f'<text x="{x + lane_w / 2:.2f}" y="{top - 12}" font-size="12" '
            f'text-anchor="middle" font-family="monospace">{lane.label}</text>'
        )
        parts.append(
            f'<rect x="{x + 10}" y="{top}" width="{lane_w - 20}" height="{track}" '
            f'fill="#e8e2d4" stroke="#999999" stroke-width="0.5"/>'
        )
        is_ladder = lane.label == "ladder"
        for band in lane.bands:
            if band.migration > GEL_LENGTH:
                continue  # ran off the end before the dye reached the stop line
            by = y(band.migration)
            if is_ladder:
                parts.append(
                    f'<rect x="{x + 14}" y="{by - 1:.2f}" width="{lane_w - 28}" '
                    f'height="2" fill="#8a8378"/>'
                )
                parts.append(
                    f'<text x="{x + lane_w - 10}" y="{by + 3:.2f}" font-size="9" '
                    f'font-family="monospace" fill="#6a6358">{band.length}</text>'
                )
            else:
                g = _gray(band.intensity, peak)
                parts.append(
                    f'<rect x="{x + 14}" y="{by - 3:.2f}" width="{lane_w - 28}" '
                    f'height="6" fill="rgb({g},{g},{g})"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_text(run: GelRun) -> str:
    cols = 61
    lines = []
    for lane in run.lanes:
        track = ["."] * cols
        for band in lane.bands:
            if band.migration > GEL_LENGTH:
                continue
            pos = round(band.migration / GEL_LENGTH * (cols - 1))
            track[pos] = "|" if lane.label == "ladder" else "#"
        dye = round(float(DYE_STOP) * (cols - 1))
        if track[dye] == ".":
            track[dye] = ":"
        summary = ", ".join(
            f"{band.length}bp x{band.intensity}" for band in lane.bands
        )
        lines.append(f"{lane.label:>8} [{''.join(track)}] {summary}")
    return "\n".join(lines) + "\n"


# -- decision readout --------------------------------------------------------

class DecisionReport(NamedTuple):
    option_labels: tuple[str, ...]
    estimates: tuple[Fraction, ...]
    oracle: tuple[int, ...]
    decoded: tuple[tuple[str, ...], ...]
    # the first band or estimate that differs from its exact prediction, or ""
    mismatch: str

    @property
    def chosen(self) -> tuple[int, ...]:
        """The options of the highest estimate, ascending."""
        top = max(self.estimates)
        return tuple(i for i, e in enumerate(self.estimates) if e == top)

    @property
    def disagreement(self) -> str:
        """What first differs from the exact oracle, or "" if nothing does."""
        if self.mismatch or self.chosen == self.oracle:
            return self.mismatch
        return f"chose {self.chosen}, oracle says {self.oracle}"

    @property
    def agreement(self) -> bool:
        return not self.disagreement

    @property
    def chosen_labels(self) -> tuple[str, ...]:
        return tuple(self.option_labels[i] for i in self.chosen)

    def describe(self) -> str:
        lines = ["decision readout", "================"]
        for label, est, outs in zip(self.option_labels, self.estimates, self.decoded):
            lines.append(
                f"  {label}: expected utility {est} "
                f"(bands decoded as [{', '.join(outs)}])"
            )
        lines.append(f"chosen: {', '.join(self.chosen_labels)}")
        lines.append(
            "matches the exact oracle"
            if self.agreement
            else f"DISAGREES with the exact oracle: {self.disagreement}"
        )
        return "\n".join(lines) + "\n"


def _lane_mismatch(lane: Lane, rows: list[tuple[int, int]], unit: int) -> str:
    """Where `lane` first differs from `rows`, its predicted (length, count)
    bands with counts in units of 1/`unit` before amplification; "" if nowhere.
    A band's intensity is count * scale / unit, compared in integers."""
    rows = [row for row in rows if row[1]]
    if len(lane.bands) != len(rows):
        return f"lane {lane.label}: {len(lane.bands)} band(s), predicted {len(rows)}"
    num, den = lane.scale.numerator, lane.scale.denominator
    for k, (band, (length, count)) in enumerate(zip(lane.bands, rows)):
        shown = band.intensity
        if band.length != length or (shown.numerator * unit * den
                                    != count * num * shown.denominator):
            return (f"lane {lane.label}: band {k + 1} is {band.length} bp x{shown}, "
                    f"predicted {length} bp x{count * lane.scale / unit}")
    return ""


def readout(
    run: GelRun,
    plan: EncodingPlan,
    matrix: DecisionMatrix | None = None,
) -> DecisionReport:
    """Read lanes back into expected utilities and pick the winning options.

    Band lengths are recovered from migration distances via the ladder
    calibration (each distinct migration decoded once per call), matched to
    predicted construct lengths within half the gel resolution, and their
    intensities (normalized by amplification) sum to each option's favorable
    probability mass. A lane's intensities are summed as integers over their
    common denominator; with u_unfavorable = a/b, span = c/d and the lane's
    scale s/t, its estimate is one `Fraction` of
    (a*d*common*s + b*c*total*t) / (b*d*common*s), so any lane reads
    exactly; a lane whose scale is not positive is refused. `matrix`, if
    given, must be the plan's own: the plan's construct lengths decode the bands.

    The exact gate: every lane's bands must be `plan.predicted_bands()` with
    the count-0 rows dropped, and every estimate the exact expected utility,
    u_unfavorable + span * (the sum of its predicted counts) / the plan's
    unit, compared by cross-multiplying. The first difference is the
    report's `mismatch`.
    """
    if matrix is not None and matrix is not plan.matrix:
        raise GelError("matrix is not the one the plan was compiled for")
    matrix = plan.matrix
    lanes = run.sample_lanes()
    if len(lanes) != len(matrix.options):
        raise GelError(
            f"{len(lanes)} sample lanes for {len(matrix.options)} options"
        )
    predicted = {
        out.label: plan.construct_length(out.label) for out in matrix.outcomes
    }
    tolerance = GEL_RESOLUTION / 2
    a, b = matrix.u_unfavorable.numerator, matrix.u_unfavorable.denominator
    span = matrix.u_favorable - matrix.u_unfavorable
    c, d = span.numerator, span.denominator
    unit = plan.intensity_scale()
    names: dict[float, str] = {}  # construct label by band migration
    estimates = []
    decoded_all = []
    mismatch = ""
    for lane, rows in zip(lanes, plan.predicted_bands()):
        if lane.scale <= 0:
            raise GelError(f"lane {lane.label}: scale {lane.scale} is not positive")
        decoded = []
        for band in lane.bands:
            name = names.get(band.migration)
            if name is None:
                apparent = decode_length(band.migration, run.ladder[-1])
                hits = [
                    label
                    for label, length in predicted.items()
                    if abs(apparent - length) <= tolerance
                ]
                if len(hits) != 1:
                    raise GelError(
                        f"lane {lane.label}: band at {apparent:.1f} bp matches "
                        f"{len(hits)} predicted constructs"
                    )
                name = names[band.migration] = hits[0]
            decoded.append(name)
        weights = [band.intensity for band in lane.bands]
        common = math.lcm(*(w.denominator for w in weights))
        total = sum(w.numerator * (common // w.denominator) for w in weights)
        # a/b + c/d * total/common / (s/t), over one denominator
        s, t = lane.scale.numerator, lane.scale.denominator
        estimate = Fraction(a * d * common * s + b * c * total * t, b * d * common * s)
        estimates.append(estimate)
        decoded_all.append(tuple(decoded))
        if not mismatch:
            mismatch = _lane_mismatch(lane, rows, unit)
        if not mismatch:
            # the exact a/b + c/d * counts/unit, compared by cross-multiplying
            num = a * d * unit + b * c * sum(count for _, count in rows)
            den = b * d * unit
            if estimate.numerator * den != num * estimate.denominator:
                mismatch = f"lane {lane.label}: estimate {estimate}, exact {Fraction(num, den)}"
    return DecisionReport(
        option_labels=tuple(o.label for o in matrix.options),
        estimates=tuple(estimates),
        oracle=tuple(best_options(matrix)),
        decoded=tuple(decoded_all),
        mismatch=mismatch,
    )
