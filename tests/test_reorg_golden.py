"""The reorganizer's output is pinned by committed golden digests.

``REORG_GOLDEN.json`` holds a digest of every program image the
toolchain produces at every Table 11 level for the corpus, the MiniJava
examples, the kernel ROM and a fixed fuzz range.  A scheduling or DAG
change that is meant to be output-neutral must leave every digest
unchanged; one that is meant to change output rewrites the fixture with
``tools/reorg_golden.py write`` and the diff is the record.
"""


def test_reorganized_images_match_golden_digests(reorg_golden):
    changed = reorg_golden.check()
    assert not changed, f"{len(changed)} image(s) changed, first: {changed[:5]}"
