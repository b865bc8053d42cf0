"""Sequence-level substrate: strands, antiparallel duplexes, recognition sites.

A strand is its sequence, stored 5'->3': a `str` whose constructor checks
the ACGT alphabet. It carries no name; a plan names each strand by the key
it is stored under. A duplex lays its bottom strand antiparallel under
the top one at an integer column offset, so sticky ends fall out of the
geometry instead of being tracked separately. Recognition sites here are the
palindromic six-base blunt mid-cutters used by the protocol compiler.

The duplex primitives work on whole slices rather than one base at a time:
the pairing check compares the top strand's paired slice with the reverse
complement of the matching bottom slice, and `Duplex.top_line` is the top
strand between its two complemented overhangs. `site_hits` is the one
duplex scanner: a `str.find` loop per site over the double-stranded window
of that line (`scan` is the same loop over a bare sequence, for the
compiler's sequence rules). A digest with several enzymes is one
`cut(duplex, *sites)` call; an instance of a later site is left uncut when
an earlier site's cut column falls strictly inside it, as cutting site by
site would. A site with no instance adds no cut column and blocks nothing,
so cutting with only the sites a duplex holds gives the same fragments.
The protocol simulator uses that: it scans each pooled duplex once for the
whole library and hands those instances to every `cut` of it.
"""

from __future__ import annotations

from typing import NamedTuple

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
ALPHABET = frozenset("ACGT")


class StrandError(ValueError):
    pass


def complement(seq: str) -> str:
    """Positionwise Watson-Crick complement (the paired strand, written 3'->5')."""
    _check_alphabet(seq)
    return seq.translate(_COMPLEMENT)


def reverse_complement(seq: str) -> str:
    """The paired strand written 5'->3'."""
    return complement(seq)[::-1]


def _check_alphabet(seq: str) -> None:
    if not seq:
        raise StrandError("empty sequence")
    bad = set(seq) - ALPHABET
    if bad:
        raise StrandError(f"sequence contains non-ACGT symbols: {sorted(bad)}")


class Strand(str):
    """A single DNA strand: its sequence, given 5'->3', checked to be ACGT."""

    __slots__ = ()

    def __new__(cls, seq: str) -> "Strand":
        _check_alphabet(seq)
        return str.__new__(cls, seq)


class _DuplexFields(NamedTuple):
    top: Strand
    bottom: Strand
    offset: int


class Duplex(_DuplexFields):
    """Two antiparallel strands annealed at a column offset.

    Columns are indexed along the top strand (top base t sits at column t).
    The bottom strand runs 3'->5' when the duplex is read left to right; its
    base i (counted from its own 5' end) occupies column offset+len-1-i.
    A positive offset therefore leaves `offset` unpaired top bases on the
    left, a negative one hangs the bottom strand out past the top's 5' end.
    """

    __slots__ = ()

    def __new__(cls, top: str, bottom: str, offset: int = 0) -> "Duplex":
        self = tuple.__new__(cls, (Strand(top), Strand(bottom), offset))
        lo, hi = self.ds_start, self.ds_end
        if hi - lo < 1:
            raise StrandError("strands do not overlap at this offset")
        end = offset + len(bottom)
        paired = bottom[end - hi : end - lo][::-1].translate(_COMPLEMENT)
        if top[lo:hi] != paired:
            c = next(c for c in range(lo, hi) if top[c] != complement(self.bottom_base(c)))
            raise StrandError(f"mismatched pair at column {c}: {top[c]}/{self.bottom_base(c)}")
        return self

    # -- geometry --------------------------------------------------------

    @property
    def span_start(self) -> int:
        return min(0, self.offset)

    @property
    def span_end(self) -> int:
        return max(len(self.top), self.offset + len(self.bottom))

    @property
    def span_length(self) -> int:
        return self.span_end - self.span_start

    @property
    def ds_start(self) -> int:
        return max(0, self.offset)

    @property
    def ds_end(self) -> int:
        return min(len(self.top), self.offset + len(self.bottom))

    @property
    def is_blunt(self) -> bool:
        return self.offset == 0 and len(self.top) == len(self.bottom)

    def bottom_base(self, column: int) -> str:
        return self.bottom[self.offset + len(self.bottom) - 1 - column]

    def top_line(self) -> str:
        """Sequence content across the whole span, read in top-strand orientation.

        Columns outside the top strand carry the complement of the bottom
        strand's overhang, which reads back to front along the columns.
        """
        bottom = self.bottom
        left = max(0, -self.offset)
        right = max(0, self.offset + len(bottom) - len(self.top))
        return (
            bottom[len(bottom) - left :][::-1].translate(_COMPLEMENT)
            + self.top
            + bottom[:right][::-1].translate(_COMPLEMENT)
        )


# -- restriction sites ---------------------------------------------------

CUT_OFFSET = 3  # every modeled enzyme cuts bluntly between the site's bases 3 and 4


class _SiteFields(NamedTuple):
    enzyme: str
    site: str


class RecognitionSite(_SiteFields):
    """A palindromic six-base site cut bluntly at its center (`CUT_OFFSET`)
    on both strands."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "RecognitionSite":
        self = super().__new__(cls, *args, **kwargs)
        if len(self.site) != 6:
            raise StrandError(f"{self.enzyme}: recognition site must be 6 bases")
        if self.site != reverse_complement(self.site):
            raise StrandError(f"{self.enzyme}: site {self.site} is not palindromic")
        return self


def scan(seq: str, site: str) -> list[int]:
    """Start positions of `site` in `seq`, ascending."""
    hits = []
    p = seq.find(site)
    while p != -1:
        hits.append(p)
        p = seq.find(site, p + 1)
    return hits


def find_sites(duplex: Duplex, site: RecognitionSite) -> list[int]:
    """Start positions (span coordinates) of site instances lying fully in dsDNA."""
    return site_hits(duplex, (site,)).get(site, [])


def site_hits(duplex: Duplex, sites) -> dict[RecognitionSite, list[int]]:
    """Instances (span coordinates, in dsDNA) of each given site that has any,
    in the given order."""
    line, start = duplex.top_line(), duplex.span_start
    lo, hi = duplex.ds_start - start, duplex.ds_end - start  # the dsDNA columns
    found: dict[RecognitionSite, list[int]] = {}
    for site in sites:
        p = line.find(site.site, lo, hi)
        while p != -1:
            found.setdefault(site, []).append(p)
            p = line.find(site.site, p + 1, hi)
    return found


def cut(
    duplex: Duplex,
    *sites: RecognitionSite,
    hits: dict[RecognitionSite, list[int]] | None = None,
) -> list[Duplex]:
    """Digest with every given enzyme at once.

    The result equals cutting with each site in turn, in the given order,
    and re-cutting every fragment: a site instance is cut unless an earlier
    site's cut column falls strictly inside it, since that cut has already
    split it across two fragments. Instances of the same site never block
    each other. With no instance to cut, the input comes back as the only
    fragment.

    `hits`, the `site_hits` of this duplex for at least the given sites,
    spares the scan.

    Base bookkeeping is exact: fragment span lengths always sum to the
    span length of the input.
    """
    if hits is None:
        hits = site_hits(duplex, sites)
    cols: list[int] = []
    for site in sites:
        width, earlier = len(site.site), cols[:]
        for p in hits.get(site, ()):
            for c in earlier:
                if p < c < p + width:
                    break
            else:
                cols.append(p + CUT_OFFSET)
    if not cols:
        return [duplex]
    top, bottom, offset = duplex
    end = offset + len(bottom)  # one past the bottom strand's last column
    a = start = min(0, offset)
    out = []
    for b in sorted(start + c for c in cols) + [max(len(top), end)]:
        ta, ba = max(a, 0), max(a, offset)  # top columns [a, b) and the bottom bases under them
        out.append(_derived(top[ta:b], bottom[end - min(b, end) : end - ba], ba - ta))
        a = b
    return out


def _derived(top: str, bottom: str, offset: int) -> Duplex:
    """A duplex cut or copied from checked strands, built without the checks
    of `Strand` and `Duplex` (only `cut` and `wetlab.assemble` use it): the
    caller guarantees non-empty ACGT strands that pair at `offset`."""
    return tuple.__new__(Duplex, (str.__new__(Strand, top), str.__new__(Strand, bottom), offset))


# The six cutters the canonical protocol draws from, then further blunt
# mid-cutters so larger matrices can still get one enzyme per node.
CORE_BLUNT_CUTTERS: tuple[RecognitionSite, ...] = (
    RecognitionSite("PvuII", "CAGCTG"),
    RecognitionSite("HpaI", "GTTAAC"),
    RecognitionSite("StuI", "AGGCCT"),
    RecognitionSite("PmlI", "CACGTG"),
    RecognitionSite("EcoRV", "GATATC"),
    RecognitionSite("ScaI", "AGTACT"),
)

EXTENDED_BLUNT_CUTTERS: tuple[RecognitionSite, ...] = CORE_BLUNT_CUTTERS + (
    RecognitionSite("SmaI", "CCCGGG"),
    RecognitionSite("MscI", "TGGCCA"),
    RecognitionSite("NaeI", "GCCGGC"),
    RecognitionSite("NruI", "TCGCGA"),
    RecognitionSite("SnaBI", "TACGTA"),
    RecognitionSite("ZraI", "GACGTC"),
    RecognitionSite("FspI", "TGCGCA"),
    RecognitionSite("AfeI", "AGCGCT"),
    RecognitionSite("SspI", "AATATT"),
    RecognitionSite("DraI", "TTTAAA"),
    RecognitionSite("PsiI", "TTATAA"),
    RecognitionSite("BstZ17I", "GTATAC"),
)


# -- FASTA ----------------------------------------------------------------

FASTA_WIDTH = 60  # sequence characters per line


def write_fasta(records) -> str:
    """FASTA text for (name, sequence) records, in the given order."""
    lines = []
    for name, seq in records:
        lines.append(f">{name}")
        for k in range(0, len(seq), FASTA_WIDTH):
            lines.append(seq[k : k + FASTA_WIDTH])
    return "\n".join(lines) + "\n"
