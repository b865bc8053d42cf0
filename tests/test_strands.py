import pytest
from hypothesis import given, strategies as st

from dnadecide.strands import (
    CORE_BLUNT_CUTTERS,
    CUT_OFFSET,
    EXTENDED_BLUNT_CUTTERS,
    Duplex,
    RecognitionSite,
    Strand,
    StrandError,
    complement,
    cut,
    find_sites,
    reverse_complement,
    site_hits,
)
from conftest import gc_fraction

PVUII = CORE_BLUNT_CUTTERS[0]

seqs = st.text(alphabet="ACGT", min_size=1, max_size=80)


def blunt(seq: str) -> Duplex:
    return Duplex(Strand(seq), Strand(reverse_complement(seq)), 0)


def test_complement_examples():
    assert complement("GGACCGACAC") == "CCTGGCTGTG"
    assert complement("AAAA") == "TTTT"


def test_reverse_complement_examples():
    assert reverse_complement("AAC") == "GTT"
    assert reverse_complement("CAGCTG") == "CAGCTG"
    assert reverse_complement("ACGT") == "ACGT"


@given(seqs)
def test_complement_is_an_involution(s):
    assert complement(complement(s)) == s
    assert reverse_complement(reverse_complement(s)) == s


@given(seqs)
def test_complement_orientations_agree(s):
    assert reverse_complement(s) == complement(s)[::-1]


def test_non_acgt_rejected():
    with pytest.raises(StrandError):
        Strand("ACGU")
    with pytest.raises(StrandError):
        complement("")


def test_gc_fraction():
    from fractions import Fraction

    assert gc_fraction("GGCC") == 1
    assert gc_fraction("ATAT") == 0
    assert gc_fraction("ACGTACGTAA") == Fraction(4, 10)


# -- duplex geometry ----------------------------------------------------------

def test_blunt_duplex_geometry():
    d = blunt("TCTGACTCAGCTGAGATCCA")
    assert d.is_blunt
    assert d.span_length == 20
    assert (d.ds_start, d.ds_end) == (0, 20)
    assert d.top_line() == "TCTGACTCAGCTGAGATCCA"


def test_offset_duplex_has_single_stranded_toehold():
    top = Strand("CTGAGATCCAGTTAGCAGGT")
    bottom = Strand(reverse_complement("GTTAGCAGGT"))
    d = Duplex(top, bottom, offset=10)
    assert not d.is_blunt
    assert (d.ds_start, d.ds_end) == (10, 20)
    assert d.span_length == 20
    assert d.top_line() == top


def test_negative_offset_hangs_bottom_out_left():
    top = Strand("ACGTACGTAC")
    # two extra bases past the top's 5' end, i.e. a bottom 3' overhang
    bottom = Strand(reverse_complement("ACGTACGTAC") + "AA")
    d = Duplex(top, bottom, offset=-2)
    assert d.span_start == -2
    assert d.span_length == 12
    assert (d.ds_start, d.ds_end) == (0, 10)
    assert d.top_line() == "TT" + top


def test_mismatch_rejected():
    with pytest.raises(StrandError):
        Duplex(Strand("AAAA"), Strand("AAAA"), 0)


def test_duplex_checks_the_alphabet_of_plain_strings():
    # "AN" and "NT" would pair, N against N, if only the pairing were checked
    with pytest.raises(StrandError, match="non-ACGT"):
        Duplex("AN", "NT", 0)
    d = Duplex("AC", "GT", 0)
    assert (type(d.top), type(d.bottom)) == (Strand, Strand)


def test_disjoint_strands_rejected():
    with pytest.raises(StrandError):
        Duplex(Strand("AAAA"), Strand("TTTT"), 8)


# -- recognition sites and digestion -------------------------------------------

def test_catalog_sites_are_palindromic_blunt_six_cutters():
    assert len(EXTENDED_BLUNT_CUTTERS) == 18
    assert len({s.enzyme for s in EXTENDED_BLUNT_CUTTERS}) == 18
    assert len({s.site for s in EXTENDED_BLUNT_CUTTERS}) == 18
    for s in EXTENDED_BLUNT_CUTTERS:
        assert len(s.site) == 6
        assert s.site == reverse_complement(s.site)
        assert CUT_OFFSET == len(s.site) // 2  # blunt, at the site's center


def test_invalid_sites_rejected():
    with pytest.raises(StrandError):
        RecognitionSite("bad", "CAGCT")
    with pytest.raises(StrandError):
        RecognitionSite("bad", "CAGCTT")


def test_find_sites_on_option_duplex():
    d = blunt("TCTGACTCAGCTGAGATCCA")
    assert find_sites(d, PVUII) == [7]
    assert find_sites(d, CORE_BLUNT_CUTTERS[1]) == []


def test_site_in_overhang_is_not_cut():
    # site sits in a 6-base single-stranded 5' tail, so it must be invisible
    top = Strand("CAGCTG" + "ACGTACGTAC")
    bottom = Strand(reverse_complement("ACGTACGTAC"))
    d = Duplex(top, bottom, offset=6)
    assert find_sites(d, PVUII) == []
    assert cut(d, PVUII) == [d]


def test_find_sites_is_orientation_independent():
    d = blunt("TCTGACTCAGCTGAGATCCA")
    # the same molecule viewed with the bottom strand on top
    sw = Duplex(d.bottom, d.top, len(d.top) - d.offset - len(d.bottom))
    mirrored = sorted(d.span_length - 6 - p for p in find_sites(d, PVUII))
    assert sorted(find_sites(sw, PVUII)) == mirrored


def test_cut_twenty_base_duplex_into_two_blunt_halves():
    d = blunt("TCTGACTCAGCTGAGATCCA")
    frags = cut(d, PVUII)
    assert [f.span_length for f in frags] == [10, 10]
    assert all(f.is_blunt for f in frags)
    assert frags[0].top_line() == "TCTGACTCAG"
    assert frags[1].top_line() == "CTGAGATCCA"


def test_cut_absent_site_returns_input():
    d = blunt("TCTGACTCAGCTGAGATCCA")
    assert cut(d, CORE_BLUNT_CUTTERS[2]) == [d]


def test_cut_multiple_sites():
    seq = "ACGTACGTCC" + "CAGCTG" + "TTACGATACG" + "CAGCTG" + "AACCGGTTAA"
    frags = cut(blunt(seq), PVUII)
    assert [f.span_length for f in frags] == [13, 16, 13]
    assert "".join(f.top_line() for f in frags) == seq


@given(seqs.filter(lambda s: len(s) >= 6), st.sampled_from(EXTENDED_BLUNT_CUTTERS))
def test_cut_conserves_bases(s, site):
    d = blunt(s)
    frags = cut(d, site)
    assert sum(f.span_length for f in frags) == d.span_length
    assert "".join(f.top_line() for f in frags) == d.top_line()


# -- one-pass digestion and slice-level duplex primitives ----------------------

NAEI = next(s for s in EXTENDED_BLUNT_CUTTERS if s.enzyme == "NaeI")
# not in the shipped library: its site overlaps NaeI's in GCCGGCCG, which
# no two library sites can do
EAGI = RecognitionSite("EagI", "CGGCCG")
DIGEST_SITES = EXTENDED_BLUNT_CUTTERS + (EAGI,)

# chunks that make site instances, and overlapping runs of them, common
chunks = st.one_of(
    st.sampled_from([s.site for s in DIGEST_SITES] + ["GCCGGCCG", "GCCGGCCGGC"]),
    st.text(alphabet="ACGT", min_size=1, max_size=5),
)
# any enzymes in any order, or just the one pair that can straddle
site_lists = st.one_of(
    st.lists(st.sampled_from(DIGEST_SITES), unique=True, max_size=6),
    st.permutations([NAEI, EAGI]),
)


@st.composite
def duplexes(draw):
    """A duplex with an optional overhang at each end, on either strand."""
    core = "".join(draw(st.lists(chunks, min_size=1, max_size=10)))
    left = draw(st.text(alphabet="ACGT", max_size=8))
    right = draw(st.text(alphabet="ACGT", max_size=8))
    left_on_top, right_on_top = draw(st.booleans()), draw(st.booleans())
    top = (left if left_on_top else "") + core + (right if right_on_top else "")
    bottom_cols = (
        ("" if left_on_top else left) + core + ("" if right_on_top else right)
    )
    offset = len(left) if left_on_top else -len(left)
    return Duplex(Strand(top), Strand(reverse_complement(bottom_cols)), offset)


def cut_one_site_at_a_time(d, sites):
    pieces = [d]
    for site in sites:
        pieces = [frag for piece in pieces for frag in cut(piece, site)]
    return pieces


@given(duplexes(), site_lists)
def test_multi_site_cut_equals_single_site_fold(d, sites):
    # digest passes its enzymes in name order; any order must agree
    for order in (sorted(sites, key=lambda s: s.enzyme), sites):
        assert cut(d, *order) == cut_one_site_at_a_time(d, order)


def test_straddling_site_is_cut_only_by_the_earlier_enzyme():
    d = blunt("ATATAT" + "GCCGGCCG" + "ATATAT")
    assert find_sites(d, NAEI) == [6]
    assert find_sites(d, EAGI) == [8]
    # EagI first: its cut at column 11 splits NaeI's GCCGGC, so NaeI never cuts
    eag_first = cut(d, EAGI, NAEI)
    assert [f.top_line() for f in eag_first] == ["ATATATGCCGG", "CCGATATAT"]
    # NaeI first: its cut at column 9 splits EagI's CGGCCG instead
    nae_first = cut(d, NAEI, EAGI)
    assert [f.top_line() for f in nae_first] == ["ATATATGCC", "GGCCGATATAT"]
    for order in ((EAGI, NAEI), (NAEI, EAGI)):
        assert cut(d, *order) == cut_one_site_at_a_time(d, order)


def test_instances_of_one_site_never_block_each_other():
    # not a library site: ATATAT overlaps itself two bases on, which no
    # library site does, so its second instance starts inside the first's cut
    self_overlapping = RecognitionSite("AtaT", "ATATAT")
    d = blunt("GGGG" + "ATATATAT" + "GGGG")
    assert find_sites(d, self_overlapping) == [4, 6]
    assert [f.top_line() for f in cut(d, self_overlapping)] == ["GGGGATA", "TA", "TATGGGG"]


@given(duplexes(), site_lists)
def test_cut_fragments_are_checked_slices_of_the_parent(d, sites):
    frags = cut(d, *sites)
    for f in frags:
        assert Duplex(Strand(f.top), Strand(f.bottom), f.offset) == f
    assert "".join(f.top for f in frags) == d.top
    assert "".join(f.bottom for f in reversed(frags)) == d.bottom
    assert "".join(f.top_line() for f in frags) == d.top_line()


def test_cut_without_sites_returns_input():
    d = blunt("TCTGACTCAGCTGAGATCCA")
    assert cut(d) == [d]


@st.composite
def duplexes_over_sites(draw):
    """(duplex, its dsDNA columns, sites in some order) over a line dense in
    a few library sites: the window's edges fall near chunk boundaries, so
    instances lie inside it, in either overhang, or across an edge."""
    library = st.sampled_from(EXTENDED_BLUNT_CUTTERS)
    planted = draw(st.lists(library, min_size=1, max_size=3, unique=True))
    filler = st.text(alphabet="ACGT", min_size=1, max_size=4)
    chunk = st.one_of(st.sampled_from([s.site for s in planted]), filler)
    left, mid, right = ("".join(draw(st.lists(chunk, min_size=n, max_size=6))) for n in (0, 1, 0))
    line = left + mid + right
    lo = min(max(0, len(left) + draw(st.integers(-5, 5))), len(line) - 1)
    hi = min(max(lo + 1, len(left + mid) + draw(st.integers(-5, 5))), len(line))
    # each overhang hangs off the top strand or off the bottom one
    left_on_top, right_on_top = draw(st.booleans()), draw(st.booleans())
    ts, te = (0 if left_on_top else lo), (len(line) if right_on_top else hi)
    bs, be = (lo if left_on_top else 0), (hi if right_on_top else len(line))
    d = Duplex(Strand(line[ts:te]), Strand(reverse_complement(line[bs:be])), bs - ts)
    assert (d.top_line(), d.ds_start - d.span_start, d.ds_end - d.span_start) == (line, lo, hi)
    others = draw(st.lists(library, max_size=4))
    sites = draw(st.permutations(list(dict.fromkeys(planted + others))))
    return d, lo, hi, sites


@given(duplexes_over_sites())
def test_site_hits_finds_every_instance_in_dsdna(drawn):
    d, lo, hi, sites = drawn
    line = d.top_line()
    want = {}
    for site in sites:
        at = [p for p in range(lo, hi - 5) if line[p : p + 6] == site.site]
        if at:
            want[site] = at
    got = site_hits(d, sites)
    assert list(got.items()) == list(want.items())  # keys in the given order, only sites found
    for at in got.values():
        assert at == sorted(at) and all(lo <= p and p + 6 <= hi for p in at)
    for site in sites:
        assert find_sites(d, site) == site_hits(d, [site]).get(site, [])


@given(duplexes())
def test_top_line_matches_per_column_definition(d):
    expected = "".join(
        d.top[c] if 0 <= c < len(d.top) else complement(d.bottom_base(c))
        for c in range(d.span_start, d.span_end)
    )
    assert d.top_line() == expected


def test_mismatch_names_first_bad_column():
    top = "ACGTACGTAC"
    paired = list(top)
    paired[3], paired[7] = "A", "A"  # columns 3 and 7 no longer pair
    bottom = reverse_complement("".join(paired))
    with pytest.raises(StrandError, match=r"mismatched pair at column 3: T/T$"):
        Duplex(Strand(top), Strand(bottom), 0)
    # the same check applies to the paired window of an overhanging duplex
    with pytest.raises(StrandError, match=r"mismatched pair at column 5: T/T$"):
        Duplex(Strand("GG" + top), Strand(bottom), 2)

