"""Reference data the benchmark checks its outputs against."""

# FNV-1a (64-bit) of each Small-scale TSV that `figures::ALL` renders,
# captured from the serial direct reference (`EHSIM_SWEEP_SERIAL=1`:
# no pool, no memo, no replay engine). fig04, fig07 and fig13a are also
# pinned in crates/bench/tests/pinned_goldens.rs, and agree.
SMALL_TSV_FNV = {
    "table1": 0x96C5E7D6D49E4D17,
    "table2": 0x7AE9F4F2AECBB0BC,
    "hwcost": 0x711D09CAF28A6278,
    "fig04": 0x8510E75CEC527477,
    "fig05": 0x76F3B2B92D44424E,
    "fig06": 0xEA11769826494E10,
    "fig07": 0xDCA5E7C1EFFBE9A5,
    "fig08a": 0xD476B4030E00E799,
    "fig08b": 0x244E88FD2667CBB6,
    "fig09": 0x4D58CF6222FD6DD5,
    "fig10a": 0x8361CFD67A389446,
    "fig10b": 0x7720A81CDA215192,
    "fig11": 0xFEBF178580D67B49,
    "fig12": 0xA1EB2641276D733C,
    "fig13a": 0x79B6E11D165894A5,
    "fig13b": 0xE937ACCEC4190A38,
    "stats66": 0x703AF3876DDC1ECB,
}

# The paper's gmean(Total) speedups over NVSRAM(ideal), per figure and
# design. Source: the paper's Figs 4 (no power failure) and 5 (Power
# Trace 1), as transcribed in the headline table of EXPERIMENTS.md;
# "~" there marks values read off the bar charts.
PAPER_RATIOS = {
    "fig04": {
        "WL-Cache": 0.97,  # Fig 4 / abstract: "~0.97x (slightly slower)"
        "NVCache-WB": 0.32,  # Fig 4: ~0.32x
        "VCache-WT": 0.50,  # Fig 4: ~0.50x
        "ReplayCache": 0.80,  # Fig 4: ~0.80x
    },
    "fig05": {
        "WL-Cache": 1.09,  # Fig 5 / abstract: 1.09x
        "NVCache-WB": 0.33,  # Fig 5: ~0.33x
        "VCache-WT": 0.64,  # Fig 5: ~0.64x
        "ReplayCache": 0.83,  # Fig 5: ~0.83x
    },
}
