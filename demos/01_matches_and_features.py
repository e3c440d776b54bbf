"""Generate a synthetic match, round-trip it through the file format, and
extract per-hero feature vectors for all three schema variants.

Run:  python demos/01_matches_and_features.py
"""

import numpy as np

import deathcast as dc

# A short match: 1200 ticks at 30/s is 40 seconds of game time.
cfg = dc.SynthConfig(n_frames=1200, seed=7)
match = dc.generate_match(cfg, match_seed=0)
print(f"match {match.match_id}: {match.n_frames} frames, "
      f"{len(match.deaths)} deaths, towers: {len(match.tower_team)}")

# Every generated match passes validation with an empty report.
report = dc.validate_match(match)
print(f"validation: {'clean' if report.ok else report}")

# The interchange format is line-delimited text; parsing it back gives the
# same record field for field, and a rewrite is byte-identical.
raw = dc.write_match(match)
again = dc.parse_match(raw)
print(f"file size {len(raw) / 1e6:.1f} MB, round trip equal: {again == match}, "
      f"byte-stable rewrite: {dc.write_match(again) == raw}")

# Feature extraction. The full schema is 287 features per hero, so a whole
# frame is a 10 x 287 block (2870 network inputs).
for variant in ("minimal", "medium", "full"):
    schema = dc.feature_schema(variant)
    feats, times = dc.extract_match(match, schema, dc.downsample(match, 4))
    print(f"{variant:>8}: per-hero width {schema.per_hero_count:>3}, "
          f"sampled block {feats.shape}")

# The exact ordered layout is documented by the schema dump; here are the
# first few and last few entries of the full layout.
lines = dc.dump_schema(dc.feature_schema("full")).splitlines()
print("\n".join(lines[:4] + ["   ..."] + lines[-3:]))

# History-dependent features: rate-of-change features are per second since
# the previous sampled frame, so they are 0 at the first sample, and
# visibility history is 10 one-second flags.
schema = dc.feature_schema("full")
feats, _ = dc.extract_match(match, schema, dc.downsample(match, 4))
changes = [schema.index_of(n) for n in schema.names if n.endswith("_change")]
print(f"first-sample change features are all zero: {(feats[0][:, changes] == 0).all()}")
